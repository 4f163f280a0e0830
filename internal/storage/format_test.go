package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"egocensus/internal/gen"
	"egocensus/internal/graph"
)

// goldenDirected is a directed graph with a self loop, a parallel edge, a
// label in the dictionary that no node carries, an unlabelled node and
// node attributes.
func goldenDirected() *graph.Graph {
	g := graph.New(true)
	g.AddNodes(5)
	g.SetLabel(0, "gone")
	g.SetLabel(0, "x")
	g.SetLabel(2, "y")
	g.SetLabel(4, "x")
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 0}, {2, 2}, {3, 1}, {0, 1}, {4, 3}} {
		g.AddEdge(e[0], e[1])
	}
	g.SetNodeAttr(3, "age", "7")
	g.SetNodeAttr(3, "name", "three")
	g.SetNodeAttr(1, "z", "")
	return g
}

// goldenER is an undirected ER graph whose image spans several encoding
// blocks, with edge attributes on every third edge.
func goldenER() *graph.Graph {
	g := gen.ErdosRenyi(2000, 9000, 5)
	gen.AssignLabels(g, 4, 6)
	for e := 0; e < g.NumEdges(); e += 3 {
		g.SetEdgeAttr(graph.EdgeID(e), "w", fmt.Sprint(e%7))
		if e%2 == 0 {
			g.SetEdgeAttr(graph.EdgeID(e), "kind", "even")
		}
	}
	g.SetNodeAttr(17, "name", "seventeen")
	return g
}

// TestImageBytesGolden pins the image encoding: the SHA-256 of each
// fixed graph's image is a constant, so any drift in a byte, an offset or
// the trailing CRC fails here. TestWriteLoadByteIdentity cannot catch a
// drift, because it compares the encoder with itself.
func TestImageBytesGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		shards int
		sha    string
	}{
		{"directed", goldenDirected(), 1, "58084a9373dff906cb588a3a834c3f3a64848d726298477bb6993a86e18b7591"},
		{"er-edge-attrs", goldenER(), 1, "ad000301b4b2635cda7553e58514a669f62eab703d9d1cad3c7fea63e05b3490"},
		{"empty", graph.New(false), 1, "cafc78d12c3a3ad2e8eb0e1069198c3135d2309bf4aa8724a6bcdce2b0473746"},
		{"4-shard", goldenDirected(), 4, "03013d04c81595269a191e9233a5eeabd65a3349c13911abe9078f91cf70f194"},
	} {
		var buf bytes.Buffer
		if err := writeSharded(&buf, tc.g, tc.shards); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.sha {
			t.Errorf("%s: image (%d bytes) sha256 %s, want %s", tc.name, buf.Len(), got, tc.sha)
		}
	}
}

// saveBenchGraph is the shape ingest_durable_p1 reaches: PA(10 000, 5)
// with four labels, an attribute on every tenth node, and 400 000 random
// edges on top.
func saveBenchGraph() *graph.Graph {
	g := gen.PreferentialAttachment(10_000, 5, 1)
	gen.AssignLabels(g, 4, 2)
	for n := 0; n < g.NumNodes(); n += 10 {
		g.SetNodeAttr(graph.NodeID(n), "bucket", fmt.Sprint(n%16))
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400_000; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes())))
	}
	return g
}

// BenchmarkSave prices encoding one image, without the file system: the
// bytes go to io.Discard.
func BenchmarkSave(b *testing.B) {
	g := saveBenchGraph()
	var img bytes.Buffer
	if err := writeSharded(&img, g, 1); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(img.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeSharded(io.Discard, g, 1); err != nil {
			b.Fatal(err)
		}
	}
}
