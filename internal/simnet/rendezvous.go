package simnet

import (
	"errors"
	"fmt"
	"time"

	"torhs/internal/hspop"
	"torhs/internal/onion"
)

// This file implements the server side of the v2 hidden-service protocol
// and the rendezvous connection establishment the paper's Section II-A
// summarises: the service maintains introduction points and entry guards,
// uploads descriptors through a guard-anchored circuit, and clients reach
// it by joining circuits at a rendezvous point.

// Host is the machine operating a hidden service: the thing whose
// location the protocol protects and the [8]-style guard attack reveals.
type Host struct {
	// Service is the hidden service this host runs.
	Service *hspop.Service
	// IP / Country are the host's real location.
	IP      string
	Country string

	gs     guardSet
	intros []onion.Fingerprint
}

// Guards returns the host's current guard set.
func (h *Host) Guards() [3]onion.Fingerprint { return h.gs.guards }

// IntroPoints returns the host's current introduction points.
func (h *Host) IntroPoints() []onion.Fingerprint {
	out := make([]onion.Fingerprint, len(h.intros))
	copy(out, h.intros)
	return out
}

// Circuit is a three-hop path; the first hop is always an entry guard.
type Circuit struct {
	Guard  onion.Fingerprint
	Middle onion.Fingerprint
	Last   onion.Fingerprint
}

// UploadEvent is one descriptor upload as observed on the wire: the host
// pushed a descriptor to a directory through a guard-anchored circuit.
// The [8] attack taps here: a malicious directory answers the upload with
// a traffic signature, and if the host's guard is attacker-controlled the
// signature reveals the host's IP.
type UploadEvent struct {
	Host   *Host
	Guard  onion.Fingerprint
	Dir    onion.Fingerprint
	DescID onion.DescriptorID
	At     time.Time
}

// RendezvousResult describes one completed (or failed) client connection.
type RendezvousResult struct {
	// Found reports whether the descriptor lookup succeeded.
	Found bool
	// IntroPoint and RendezvousPoint are the relays used.
	IntroPoint      onion.Fingerprint
	RendezvousPoint onion.Fingerprint
	// ClientCircuit / ServiceCircuit are the two halves joined at the
	// rendezvous point.
	ClientCircuit  Circuit
	ServiceCircuit Circuit
}

// errNoRelays is returned when the consensus lacks enough relays to build
// circuits.
var errNoRelays = errors.New("simnet: not enough relays for circuit building")

// Host returns the host running the service with the given address, if
// the network has materialised one (hosts are created on first publish).
// It panics on a restricted network, which builds no hosts.
func (n *Network) Host(addr onion.Address) (*Host, bool) {
	n.mustBeUnrestricted("Host")
	h, ok := n.hosts[addr]
	return h, ok
}

// mustBeUnrestricted panics on a restricted network, which builds no
// hosts and publishes to its observed directories only.
func (n *Network) mustBeUnrestricted(method string) {
	if n.restricted() {
		panic("simnet: " + method + " on a restricted network")
	}
}

// OnUpload registers an observer for descriptor-upload events. It panics
// on a restricted network (Config.Observed), which publishes to observed
// directories only and so cannot announce every upload.
func (n *Network) OnUpload(fn func(UploadEvent)) {
	n.mustBeUnrestricted("OnUpload")
	n.uploadObservers = append(n.uploadObservers, fn)
}

// introPoints is how many introduction points a host establishes.
const introPoints = 3

// ensureHost returns the service's host, materialising it on first use.
func (n *Network) ensureHost(svc *hspop.Service) *Host {
	if h, ok := n.hosts[svc.Address]; ok {
		return h
	}
	h := new(Host)
	n.initHost(h, svc, make([]onion.Fingerprint, introPoints))
	return h
}

// sweepIntros returns the introduction points of every service in
// svcs, introPoints per service in order, first making the set-up draws
// of each service that has none yet, in service order, exactly as
// ensureHost would one service at a time. An unrestricted network
// materialises and registers the new hosts, their points runs of the
// returned slice; a restricted one formats no location and builds no
// Host. The network keeps the slice, so a later sweep of the same
// population draws nothing. A restricted network, which keeps no hosts
// to look services up in, publishes one population only.
func (n *Network) sweepIntros(svcs []*hspop.Service) []onion.Fingerprint {
	if len(svcs) == len(n.introSvcs) && (len(svcs) == 0 || &svcs[0] == &n.introSvcs[0]) {
		return n.intros
	}
	if n.restricted() && n.introSvcs != nil {
		panic("simnet: a restricted network publishes one population")
	}
	if len(n.hosts) == 0 && !n.restricted() {
		n.hosts = make(map[onion.Address]*Host, len(svcs))
	}
	n.introSvcs, n.intros = svcs, make([]onion.Fingerprint, introPoints*len(svcs))
	var hosts []Host
	for i, svc := range svcs {
		intros := n.intros[i*introPoints : (i+1)*introPoints : (i+1)*introPoints]
		if n.restricted() {
			n.geoDB.DrawIP(n.rng)
			n.pickIntros(intros)
		} else if h, ok := n.hosts[svc.Address]; ok {
			copy(intros, h.intros)
		} else {
			if len(hosts) == 0 {
				hosts = make([]Host, len(svcs)-i) // sized for every service left
			}
			n.initHost(&hosts[0], svc, intros)
			hosts = hosts[1:]
		}
	}
	return n.intros
}

// initHost materialises svc's host in h and registers it: its location,
// then one introduction point per slot of intros, drawn from the network
// RNG in that order.
func (n *Network) initHost(h *Host, svc *hspop.Service, intros []onion.Fingerprint) {
	ip, country := n.geoDB.AllocateIP(n.rng)
	n.pickIntros(intros)
	*h = Host{Service: svc, IP: ip, Country: country, intros: intros}
	n.hosts[svc.Address] = h
}

// pickIntros draws one introduction point per slot of intros.
func (n *Network) pickIntros(intros []onion.Fingerprint) {
	for i := range intros {
		intros[i] = n.pickRelay()
	}
}

// pickRelay draws a random relay fingerprint from the consensus HSDir
// ring (any relay can serve as middle, intro, or rendezvous point at this
// abstraction level).
func (n *Network) pickRelay() onion.Fingerprint {
	fps := n.ring.Fingerprints()
	return fps[n.rng.Intn(len(fps))]
}

// buildCircuit assembles a guard-anchored three-hop circuit ending at
// last.
func (n *Network) buildCircuit(gs *guardSet, last onion.Fingerprint, now time.Time) Circuit {
	return Circuit{
		Guard:  gs.pickPool(n.pool, n.rng, now),
		Middle: n.pickRelay(),
		Last:   last,
	}
}

// Connect performs the full client-side rendezvous: fetch the descriptor
// (through a directory, observed in the request log), extract an
// introduction point, set up a rendezvous point, and join the two circuit
// halves. The returned result reports every relay involved, which is what
// the attacks in this repository observe. It panics on a restricted
// network, which builds no hosts.
func (n *Network) Connect(c *Client, addr onion.Address, now time.Time) (*RendezvousResult, error) {
	n.mustBeUnrestricted("Connect")
	if n.ring.Len() < 3 {
		return nil, errNoRelays
	}
	host, ok := n.hosts[addr]
	if !ok {
		return nil, fmt.Errorf("simnet: no host for %s", addr)
	}

	// 1. Descriptor fetch (with the client's possibly-skewed clock).
	ev := n.FetchDescriptor(c, host.Service.PermID, now)
	if !ev.Found {
		return &RendezvousResult{Found: false}, nil
	}
	if len(host.intros) == 0 {
		return nil, fmt.Errorf("simnet: host %s has no introduction points", addr)
	}

	// 2. Client picks a rendezvous point and builds a circuit to it.
	rp := n.pickRelay()
	clientCirc := n.buildCircuit(&c.gs, rp, now)

	// 3. INTRODUCE1 via an introduction point; the service answers by
	//    building its own circuit to the rendezvous point.
	intro := host.intros[n.rng.Intn(len(host.intros))]
	serviceCirc := n.buildCircuit(&host.gs, rp, now)

	return &RendezvousResult{
		Found:           true,
		IntroPoint:      intro,
		RendezvousPoint: rp,
		ClientCircuit:   clientCirc,
		ServiceCircuit:  serviceCirc,
	}, nil
}
