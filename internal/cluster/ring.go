// Package cluster turns "a replicated pair" into "a cluster": a seeded
// consistent-hash ring places session ids onto pairs deterministically,
// a membership table with an epoch number carries the placement (plus
// per-session overrides for migrated sessions) to every router, and a
// thin HTTP proxy (cmd/adpmproxy) — or a client-side routing table
// (internal/loadgen.RouterTarget) — routes session-scoped requests,
// including SSE streams, to the owning pair's current leader.
//
// Placement is a pure function of (seed, vnodes, pair names, session
// id): every router that holds the same table routes identically, with
// no coordination. Membership changes move only the sessions owned by
// the affected ranges (consistent hashing's minimal-movement property,
// pinned by TestRingMinimalMovement), and cross-pair migration moves
// individual sessions under a new epoch with a durable forwarding
// tombstone on the old owner, so a router holding a stale table is
// answered with 307 rather than a wrong apply.
package cluster

import (
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node count per pair when a table does
// not choose one. 128 points per pair keeps the balance bound across
// 2–16 pairs well under ±35% of the mean (TestRingBalance pins it).
const DefaultVNodes = 128

// hash64 hashes a key with the ring's seed: FNV-1a over the bytes,
// then a 64-bit avalanche finalizer (murmur3's fmix64) so consecutive
// ids ("c1", "c2", ...) spread over the whole ring. Deterministic
// across processes and platforms — placement is part of the protocol.
func hash64(seed uint64, key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64) ^ seed
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// point is one virtual node on the ring.
type point struct {
	h    uint64
	pair int // index into Ring.pairs
}

// Ring is a seeded consistent-hash ring over pair names. Immutable
// after construction; rebuild on membership change (NewRing is cheap —
// pairs×vnodes points sorted once).
type Ring struct {
	seed   uint64
	vnodes int
	pairs  []string
	points []point
}

// NewRing builds the ring for the given pair names. Names must be
// non-empty and unique; vnodes <= 0 means DefaultVNodes.
func NewRing(seed int64, vnodes int, pairs []string) (*Ring, error) {
	if len(pairs) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one pair")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(pairs))
	r := &Ring{
		seed:   uint64(seed),
		vnodes: vnodes,
		pairs:  append([]string(nil), pairs...),
		points: make([]point, 0, len(pairs)*vnodes),
	}
	for pi, name := range r.pairs {
		if name == "" {
			return nil, fmt.Errorf("cluster: empty pair name")
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate pair name %q", name)
		}
		seen[name] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{
				h:    hash64(r.seed, fmt.Sprintf("%s#%d", name, v)),
				pair: pi,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		// Hash ties (vanishingly rare) break by pair name so placement
		// stays deterministic regardless of input order.
		return r.pairs[r.points[i].pair] < r.pairs[r.points[j].pair]
	})
	return r, nil
}

// Owner returns the pair owning key: the first virtual node clockwise
// from the key's hash.
func (r *Ring) Owner(key string) string {
	h := hash64(r.seed, key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.pairs[r.points[i].pair]
}
