// Package objstore models a regional cloud object store (S3 / GCS / Azure
// Blob class): a blob service with per-zone front-end endpoints, regional
// replication handled internally by the provider, per-request latency, and
// an API request-rate limit (§VI notes these stores are "API-request
// rate-limited").
//
// It exists for the paper's stated future work (§VII): "integrate
// HopsFS-CL with native cloud storage as a block layer to make storage and
// inter-AZ networking costs competitive with native cloud object stores."
// The blocks package can use a Store as its block backend; see the
// ablation benchmark in the repository root.
package objstore

import (
	"errors"
	"fmt"
	"time"

	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
)

// Errors returned by the store.
var (
	// ErrNoSuchKey means the object does not exist.
	ErrNoSuchKey = errors.New("objstore: no such key")
	// ErrUnavailable means the regional service was unreachable.
	ErrUnavailable = errors.New("objstore: service unavailable")
)

// The store's S3-standard-class calibration.
const (
	// putLatency and getLatency are the service-side first-byte latencies
	// (cloud object stores answer in the tens of milliseconds).
	putLatency = 20 * time.Millisecond
	getLatency = 12 * time.Millisecond
	// requestsPerSecond rate-limits the API (the S3 per-prefix GET limit's
	// order of magnitude): apiSlots admission slots, each held for
	// perRequest by one request.
	requestsPerSecond = 5500
	apiSlots          = 64
	perRequest        = apiSlots * time.Second / requestsPerSecond
	// bandwidth bounds a single connection's transfer rate: ~1 GB/s.
	bandwidth float64 = 1e9
	// replicationZones is the store's internal durability fan-out. It is
	// free for the client but costs regional traffic: each PUT is copied to
	// this many zones.
	replicationZones = 3
)

// object is one stored blob (sizes only; content is out of scope).
type object struct {
	size int64
}

// Store is a regional object store with one front-end endpoint per AZ.
// Requests from a client are served by the client's zone-local endpoint;
// the store replicates internally across zones (the provider's cost, but
// the traffic is accounted like any other cross-AZ traffic, which is
// exactly the comparison the paper's future work is after).
type Store struct {
	env *sim.Env
	net *simnet.Network

	endpoints map[simnet.ZoneID]*simnet.Node
	objects   map[string]object

	// rate is the shared API admission queue.
	rate *sim.Resource

	// Puts/Gets count API requests.
	Puts, Gets int64
}

// New builds a store with endpoints in the given zones.
func New(env *sim.Env, net *simnet.Network, zones []simnet.ZoneID, hostBase int) *Store {
	s := &Store{
		env:       env,
		net:       net,
		endpoints: make(map[simnet.ZoneID]*simnet.Node, len(zones)),
		objects:   make(map[string]object),
		rate:      sim.NewResource(env, "objstore/api", apiSlots),
	}
	for i, z := range zones {
		s.endpoints[z] = net.NewNode(fmt.Sprintf("objstore-%d", i+1), z, simnet.HostID(hostBase+i))
	}
	return s
}

// endpoint returns the zone-local front end (any endpoint as fallback).
func (s *Store) endpoint(z simnet.ZoneID) *simnet.Node {
	if ep, ok := s.endpoints[z]; ok && ep.Alive() {
		return ep
	}
	for _, ep := range s.endpoints {
		if ep.Alive() {
			return ep
		}
	}
	return nil
}

// admit models the API rate limit as fluid service on the admission queue.
func (s *Store) admit(p *sim.Proc) {
	s.rate.UseDeferred(p, perRequest)
}

// Put uploads an object of the given size from the client. The provider
// replicates it across replicationZones zones internally.
func (s *Store) Put(p *sim.Proc, client *simnet.Node, key string, size int64) error {
	ep := s.endpoint(client.Zone())
	if ep == nil {
		return ErrUnavailable
	}
	s.admit(p)
	if !s.net.TravelDeferred(p, client, ep, int(size)+256, 30*time.Second) {
		return ErrUnavailable
	}
	p.Defer(putLatency + s.transferTime(size))
	// Internal durability fan-out: regional replication traffic between
	// the provider's zones.
	reps := 0
	for z, other := range s.endpoints {
		if z == ep.Zone() || reps >= replicationZones-1 {
			continue
		}
		s.net.Send(ep, other, int(size), nil)
		reps++
	}
	if !s.net.TravelDeferred(p, ep, client, 256, 30*time.Second) {
		return ErrUnavailable
	}
	s.objects[key] = object{size: size}
	s.Puts++
	return nil
}

// Get downloads an object to the client from its zone-local endpoint.
func (s *Store) Get(p *sim.Proc, client *simnet.Node, key string) (int64, error) {
	obj, ok := s.objects[key]
	if !ok {
		return 0, ErrNoSuchKey
	}
	ep := s.endpoint(client.Zone())
	if ep == nil {
		return 0, ErrUnavailable
	}
	s.admit(p)
	if !s.net.TravelDeferred(p, client, ep, 256, 30*time.Second) {
		return 0, ErrUnavailable
	}
	p.Defer(getLatency + s.transferTime(obj.size))
	if !s.net.TravelDeferred(p, ep, client, int(obj.size)+256, 30*time.Second) {
		return 0, ErrUnavailable
	}
	s.Gets++
	return obj.size, nil
}

// transferTime is the per-connection streaming time for size bytes.
func (s *Store) transferTime(size int64) time.Duration {
	return time.Duration(float64(size) / bandwidth * float64(time.Second))
}

// Delete removes an object (idempotent, like the real APIs).
func (s *Store) Delete(key string) {
	delete(s.objects, key)
}

// Exists reports whether a key is stored.
func (s *Store) Exists(key string) bool {
	_, ok := s.objects[key]
	return ok
}

// Len returns the number of stored objects.
func (s *Store) Len() int { return len(s.objects) }

// FailZone takes a zone's endpoint down (requests fail over to others).
func (s *Store) FailZone(z simnet.ZoneID) {
	if ep, ok := s.endpoints[z]; ok {
		ep.Fail()
	}
}
