package service

import (
	"errors"
	"net/http"
	"time"

	apiv1 "cbws/api/v1"
	"cbws/internal/cluster"
)

// The federated result cache: before simulating, a worker asks its
// siblings for the job's content address. Any replica that ever
// computed (or itself peer-fetched) the key serves the exact bytes,
// so the fleet-wide cache is the union of every worker's cache and a
// key is simulated at most once per fleet, not once per worker.
//
// The protocol is nothing beyond the public api/v1 surface: a plain
// GET /v1/results/{key} against each sibling in ring order. That
// works because the key embeds the code version and the full effective
// config — a sibling on a different build simply does not have the
// key, so whatever a peer serves for it is, by construction, the bytes
// this worker would have computed.

// peerFetcher holds the sibling topology of one worker.
type peerFetcher struct {
	ring    *cluster.Ring
	clients map[string]*apiv1.Client
}

// newPeerFetcher builds the sibling ring. peers are base URLs with
// self already filtered out (cbwsd does that from -advertise).
func newPeerFetcher(peers []string, timeout time.Duration) (*peerFetcher, error) {
	if len(peers) == 0 {
		return nil, nil
	}
	ring, err := cluster.NewRing(peers, 0)
	if err != nil {
		return nil, err
	}
	p := &peerFetcher{ring: ring, clients: make(map[string]*apiv1.Client, len(peers))}
	for _, u := range ring.Nodes() {
		c := apiv1.NewClient(u)
		// Peer probes sit on the job path: a slow or dead sibling must
		// cost bounded latency before the worker falls back to
		// simulating locally.
		c.HTTP = &http.Client{Timeout: timeout}
		p.clients[c.Base] = c
	}
	return p, nil
}

// tryPeerFetch attempts to serve job j from a sibling's cache,
// storing the fetched bytes under the job's content address on
// success. Siblings are probed in the key's ring order — the same
// order clients route by, so the worker most likely to have computed
// the key is asked first. Counter semantics: hits count jobs served by
// a peer, misses count per-sibling 404 probes, errors count transport
// failures and responses that fail verifyRecord.
func (s *Service) tryPeerFetch(j *Job) bool {
	p := s.peers
	if p == nil {
		return false
	}
	for _, url := range p.ring.Sequence(j.Key) {
		data, err := p.clients[url].Result(j.Key)
		if err != nil {
			var apiErr *apiv1.Error
			if errors.As(err, &apiErr) {
				s.counters.peerMisses.Add(1)
			} else {
				s.counters.peerErrors.Add(1)
			}
			continue
		}
		// Verify before caching: a sibling answering the right key with
		// a torn body, or with a record keyed from other values (names,
		// config, workload hash, code version), must never poison the
		// local cache.
		rec, err := verifyRecord(j.Key, data)
		if err != nil {
			s.counters.peerErrors.Add(1)
			continue
		}
		if err := s.cache.PutOnce(j.Key, rec, data); err != nil {
			s.counters.peerErrors.Add(1)
			return false // local disk trouble; let the simulation path report it
		}
		s.counters.peerHits.Add(1)
		return true
	}
	return false
}
