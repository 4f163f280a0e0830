package graph

// Partitioner is the deterministic node→shard map of a sharded graph.
// The shard count is fixed when a store is created and recorded in the
// store header, so the same node always lands on the same shard across
// restarts, replicas, and (eventually) machines. The hash is part of the
// on-disk contract — mutation-log segments are routed by it — and must
// never change for an existing shard count.
//
// The zero value is a valid single-shard partitioner: every node maps to
// shard 0.
type Partitioner struct {
	shards int
}

// NewPartitioner returns a partitioner over `shards` shards; counts below
// one clamp to one (the unsharded identity).
func NewPartitioner(shards int) Partitioner {
	if shards < 1 {
		shards = 1
	}
	return Partitioner{shards: shards}
}

// Shards returns the shard count (1 for the zero value).
func (p Partitioner) Shards() int {
	if p.shards < 1 {
		return 1
	}
	return p.shards
}

// Shard maps a node to its owning shard. Deterministic: a splitmix64
// finalizer over the ID, reduced modulo the shard count. The finalizer
// decorrelates the dense ID sequence so consecutively ingested nodes
// spread across shards instead of striping.
func (p Partitioner) Shard(n NodeID) int {
	if p.shards <= 1 {
		return 0
	}
	return int(mix64(uint64(n)) % uint64(p.shards))
}

// ShardEdge maps an edge to the shard that persists its attribute
// mutations. Edge routing is independent of node ownership — it only
// decides which mutation-log segment carries the op and which shard's
// degraded state gates it — so a plain hash of the edge ID suffices.
func (p Partitioner) ShardEdge(e EdgeID) int {
	if p.shards <= 1 {
		return 0
	}
	return int(mix64(uint64(e)^0x9E3779B97F4A7C15) % uint64(p.shards))
}

// mix64 is the splitmix64 finalizer, the same mixer the deterministic
// RND() stream uses (core.rndStream).
func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
