package fabric

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// vnodesPerNode is the number of ring points each node contributes.
// 64 virtual nodes keep the key share per node within a few percent of
// uniform for small fleets while the ring stays tiny (a fleet of 100
// nodes is 6400 points, one binary search per lookup).
const vnodesPerNode = 64

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is an immutable consistent-hash ring over node names. Keys map
// to the first ring point clockwise from the key's hash; adding or
// removing one node moves only the keys adjacent to its points
// (≈ 1/N of the keyspace), which is what lets a fleet grow or lose a
// node without invalidating every peer's cache ownership.
type Ring struct {
	points []ringPoint
}

// NewRing builds a ring from node names. Order does not matter; two
// rings over the same set place every key identically. An empty node
// set yields a ring whose Owner always returns "".
func NewRing(nodes []string) *Ring {
	r := &Ring{points: make([]ringPoint, 0, len(nodes)*vnodesPerNode)}
	for _, n := range nodes {
		for i := 0; i < vnodesPerNode; i++ {
			r.points = append(r.points, ringPoint{hash: pointHash(n, i), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on name so rings built from permuted node lists
		// agree even in the (2^-64) event of a point-hash collision.
		return r.points[i].node < r.points[j].node
	})
	return r
}

func pointHash(node string, vnode int) uint64 {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", node, vnode)))
	return binary.BigEndian.Uint64(sum[:8])
}

func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Owner returns the node owning key: the first point at or clockwise
// after the key's hash. Empty string on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the circle's first point
	}
	return r.points[i].node
}
