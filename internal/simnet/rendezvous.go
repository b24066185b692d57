package simnet

import (
	"time"

	"torhs/internal/hspop"
	"torhs/internal/onion"
)

// This file implements the server side of the v2 hidden-service protocol
// the paper's Section II-A summarises: each service's host draws its
// introduction points and entry guards and uploads its descriptors
// through a guard-anchored circuit, where the [8]-style guard attack
// observes it. The client side, the descriptor fetch, is DriveWindow's.

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

// mustBeUnrestricted panics on a restricted network, which builds no
// hosts and publishes to its observed directories only.
func (n *Network) mustBeUnrestricted(method string) {
	if n.Restricted() {
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

// sweepIntros makes the set-up draws of every service in svcs that has
// none yet, in service order, exactly as ensureHost would one service at
// a time. An unrestricted network materialises and registers the new
// hosts and keeps every service's points in n.intros, introPoints per
// service in order. A restricted one formats no location, builds no
// Host and keeps the points as ring positions in n.introPos; placeByArc
// turns into fingerprints only those of the services it places. The
// network keeps what it drew, so a later sweep of the same population
// draws nothing. A restricted network, which keeps no hosts to look
// services up in, publishes one population only.
func (n *Network) sweepIntros(svcs []*hspop.Service) {
	if len(svcs) == len(n.introSvcs) && (len(svcs) == 0 || &svcs[0] == &n.introSvcs[0]) {
		return
	}
	if n.Restricted() {
		if n.introSvcs != nil {
			panic("simnet: a restricted network publishes one population")
		}
		n.introSvcs, n.introPos = svcs, make([]int32, introPoints*len(svcs))
		for i := range svcs {
			n.geoDB.DrawIP(n.rng)
			for j := range introPoints {
				n.introPos[i*introPoints+j] = n.pickRelay()
			}
		}
		return
	}
	if len(n.hosts) == 0 {
		n.hosts = make(map[onion.Address]*Host, len(svcs))
	}
	n.introSvcs, n.intros = svcs, make([]onion.Fingerprint, introPoints*len(svcs))
	var hosts []Host
	for i, svc := range svcs {
		intros := n.intros[i*introPoints : (i+1)*introPoints : (i+1)*introPoints]
		if h, ok := n.hosts[svc.Address]; ok {
			copy(intros, h.intros)
		} else {
			if len(hosts) == 0 {
				hosts = make([]Host, len(svcs)-i) // sized for every service left
			}
			n.initHost(&hosts[0], svc, intros)
			hosts = hosts[1:]
		}
	}
}

// initHost materialises svc's host in h and registers it: its location,
// then one introduction point per slot of intros, drawn from the network
// RNG in that order.
func (n *Network) initHost(h *Host, svc *hspop.Service, intros []onion.Fingerprint) {
	ip, country := n.geoDB.AllocateIP(n.rng)
	for i := range intros {
		intros[i] = n.ringFPs[n.pickRelay()]
	}
	*h = Host{Service: svc, IP: ip, Country: country, intros: intros}
	n.hosts[svc.Address] = h
}

// pickRelay draws the ring position of a random relay on the consensus
// HSDir ring (any relay can serve as middle, intro, or rendezvous point
// at this abstraction level).
func (n *Network) pickRelay() int32 {
	return int32(n.rng.Intn(len(n.ringFPs)))
}
