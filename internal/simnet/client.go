// Package simnet simulates the client side of the hidden-service
// ecosystem: clients with entry-guard sets, descriptor-fetch traffic
// driven by the population's popularity model (including the large volume
// of requests for never-published descriptors the paper observed), and
// the guard-based traffic-signature attack of Section VI.
package simnet

import (
	"math/rand"
	"time"
)

// Client is one Tor client.
type Client struct {
	// ID is a stable identifier.
	ID int
	// IP is the client's real address; Country its geolocation.
	IP      string
	Country string
	// ClockSkew offsets the client's wall clock. Clients with skewed
	// clocks compute descriptor IDs for the wrong time period, which is
	// why the paper resolves requests over a ±days window.
	ClockSkew time.Duration

	gs guardSet
}

// minGuardLifetime is the shortest guard rotation lifetime; a freshly
// refreshed guard is guaranteed stable for at least this long.
const minGuardLifetime = 30 * 24 * time.Hour

// guardLifetime draws a guard rotation lifetime uniform in [30,60) days,
// as the Tor client does.
func guardLifetime(rng *rand.Rand) time.Duration {
	return minGuardLifetime + time.Duration(rng.Intn(30))*24*time.Hour
}

// LocalTime returns the client's skewed notion of now.
func (c *Client) LocalTime(now time.Time) time.Time { return now.Add(c.ClockSkew) }
