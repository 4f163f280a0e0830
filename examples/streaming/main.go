// Streaming census: maintain a triangle census incrementally while edges
// arrive, as in a live social network. This exercises the repository's
// dynamic-graph extension (the paper's algorithms are batch-only): a
// writer publishes the friendships a batch at a time, a maintainer
// updates the per-node counts from each published snapshot, and the
// example periodically verifies them against a full recomputation,
// exiting non-zero on any drift.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sort"

	"egocensus"
)

// batch is the number of friendships per publish.
const batch = 16

func main() {
	people := flag.Int("people", 400, "population size")
	stream := flag.Int("edges", 1200, "edges to stream")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()
	rng := rand.New(rand.NewSource(*seed))

	g := egocensus.NewGraph(false)
	for i := 0; i < *people; i++ {
		g.AddNode()
	}
	w := egocensus.NewWriter(g, 1)
	spec := egocensus.Spec{Pattern: egocensus.CliquePattern("tri", 3, nil), K: 2}
	mt := egocensus.NewMaintainer(w.Snapshot())
	if err := mt.Register("tri", spec, egocensus.Options{Seed: *seed}); err != nil {
		log.Fatal(err)
	}
	stop := mt.Attach(w)
	defer stop()

	fmt.Printf("streaming %d friendships into a %d-person network, %d per publish\n\n", *stream, *people, batch)
	checkpoints := map[int]bool{*stream / 4: true, *stream / 2: true, *stream: true}
	friends := map[[2]egocensus.NodeID]bool{}
	added := 0
	for added < *stream {
		// Friendships form with triadic closure: half the time pick a
		// friend-of-a-friend in the last published version.
		a := egocensus.NodeID(rng.Intn(*people))
		b := egocensus.NodeID(rng.Intn(*people))
		if rng.Float64() < 0.5 {
			cur := w.Snapshot().Graph()
			if nbrs := cur.Neighbors(a); len(nbrs) > 0 {
				mid := nbrs[rng.Intn(len(nbrs))]
				if nn := cur.Neighbors(mid); len(nn) > 0 {
					b = nn[rng.Intn(len(nn))]
				}
			}
		}
		if a > b {
			a, b = b, a
		}
		if a == b || friends[[2]egocensus.NodeID{a, b}] {
			continue
		}
		friends[[2]egocensus.NodeID{a, b}] = true
		w.AddEdge(a, b)
		added++
		if added%batch != 0 && !checkpoints[added] {
			continue
		}
		s, err := w.Publish()
		if err != nil {
			log.Fatal(err)
		}
		if !checkpoints[added] {
			continue
		}

		// Verify the maintained counts against a fresh computation on the
		// same snapshot.
		if _, err := mt.CatchUp(s.Epoch()); err != nil {
			log.Fatal(err)
		}
		counts, epoch, err := mt.Counts("tri")
		if err != nil {
			log.Fatal(err)
		}
		fresh, err := egocensus.CountSnapshot(s, spec, egocensus.PTOpt, egocensus.Options{Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		if epoch != s.Epoch() || len(counts) != len(fresh.Counts) {
			log.Fatalf("maintainer at epoch %d with %d nodes, snapshot %d with %d", epoch, len(counts), s.Epoch(), len(fresh.Counts))
		}
		for n := range fresh.Counts {
			if counts[n] != fresh.Counts[n] {
				log.Fatalf("drift at node %d: maintained %d, recompute %d", n, counts[n], fresh.Counts[n])
			}
		}
		type nc struct {
			n egocensus.NodeID
			c int64
		}
		top := make([]nc, 0, len(counts))
		for n, c := range counts {
			top = append(top, nc{egocensus.NodeID(n), c})
		}
		sort.Slice(top, func(i, j int) bool {
			if top[i].c != top[j].c {
				return top[i].c > top[j].c
			}
			return top[i].n < top[j].n
		})
		triangles, _ := mt.NumMatches("tri")
		fmt.Printf("after %4d edges: %d triangles total; top egos:", added, triangles)
		for i := 0; i < 3 && i < len(top); i++ {
			fmt.Printf("  node %d (%d)", top[i].n, top[i].c)
		}
		fmt.Println("  [verified against full recompute]")
	}
}
