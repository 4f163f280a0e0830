package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"egocensus/internal/gen"
	"egocensus/internal/graph"
)

// validStoreBytes encodes a small property graph — labels, node and edge
// attributes — exercising every section of the format.
func validStoreBytes(tb testing.TB) []byte {
	g := gen.ErdosRenyi(12, 24, 3)
	gen.AssignLabels(g, 2, 7)
	g.SetNodeAttr(0, "name", "zero")
	g.SetNodeAttr(3, "age", "9")
	if g.NumEdges() > 0 {
		g.SetEdgeAttr(0, "w", "3")
	}
	var buf bytes.Buffer
	if err := writeSharded(&buf, g, 1); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// patchCRC recomputes the trailing checksum so mutations reach the
// header/section validation behind the CRC gate.
func patchCRC(data []byte) []byte {
	if len(data) < headerSize+4 {
		return data
	}
	out := append([]byte(nil), data...)
	sum := crc32.ChecksumIEEE(out[:len(out)-4])
	binary.LittleEndian.PutUint32(out[len(out)-4:], sum)
	return out
}

// FuzzOpenStore feeds mutated .egoc bytes to Open: a corrupt file must be
// rejected with an error — never a panic — and a file that opens must be
// fully servable (adjacency, edge endpoints, and Materialize, which
// serves the attributes) without panicking. Materialize must agree with
// the per-item reference on every file Open accepts: both fail, or both
// succeed with equal graphs. Each
// input is tried both raw and with its trailing CRC recomputed, so
// mutations also explore the structural validation behind the checksum
// gate.
func FuzzOpenStore(f *testing.F) {
	valid := validStoreBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:headerSize+4])
	f.Add([]byte{})
	f.Add([]byte("not a graph file at all"))
	flipped := append([]byte(nil), valid...)
	flipped[headerSize/2] ^= 0x40
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for i, variant := range [][]byte{data, patchCRC(data)} {
			path := filepath.Join(dir, "f"+string(rune('0'+i))+".egoc")
			if err := os.WriteFile(path, variant, 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Open(path, 4)
			if err != nil {
				continue // rejected; the only requirement is no panic
			}
			// The file passed validation: every access path must work
			// without panicking or erroring into undefined state.
			for n := 0; n < st.NumNodes(); n++ {
				id := graph.NodeID(n)
				st.Label(id)
				if _, _, err := st.Adjacency(id); err != nil {
					break
				}
			}
			for e := 0; e < st.NumEdges(); e++ {
				if _, _, err := st.EdgeEndpoints(graph.EdgeID(e)); err != nil {
					break
				}
			}
			got, errGot := st.Materialize()
			want, errWant := materializeReference(st)
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("Materialize error %v, reference error %v", errGot, errWant)
			}
			if errGot == nil {
				assertGraphsEqual(t, want, got)
			}
			st.Close()
		}
	})
}

func TestOpenCorruptTyped(t *testing.T) {
	valid := validStoreBytes(t)
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := map[string][]byte{
		"truncated": valid[:len(valid)-10],
		"tiny":      valid[:8],
		"bitflip":   append([]byte(nil), valid...),
	}
	cases["bitflip"][len(valid)/2] ^= 0x10
	// A header lying about its node count must fail validation even with
	// a correct checksum.
	lying := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(lying[10:], 1<<40)
	cases["lying-header"] = patchCRC(lying)
	for name, data := range cases {
		path := write(name+".egoc", data)
		_, err := Open(path, 0)
		if err == nil {
			t.Fatalf("%s: corrupt file opened", name)
		}
		var cfe *CorruptFileError
		if !errors.As(err, &cfe) {
			t.Fatalf("%s: err = %T (%v), want *CorruptFileError", name, err, err)
		}
		if cfe.Path != path || cfe.Detail == "" {
			t.Fatalf("%s: incomplete error %+v", name, cfe)
		}
	}
}

// TestOpenRejectsUnorderedAttrEntries crafts images whose node attribute
// section repeats an object id or lists ids out of order. Write emits
// strictly ascending ids, so Open must reject both: a repeated entry
// would otherwise let the later one silently win on hydration.
func TestOpenRejectsUnorderedAttrEntries(t *testing.T) {
	g := graph.New(false)
	g.AddNodes(4)
	g.SetNodeAttr(1, "a", "x")
	g.SetNodeAttr(2, "b", "y")
	img := writeImage(t, g)
	dir := t.TempDir()
	path := filepath.Join(dir, "valid.egoc")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := st.h.NodeAttrOff
	st.Close()
	// Entry layout: u32 id, u16 pair count, str16 key, str16 value; each
	// entry here is 4+2+3+3 bytes.
	first, second := off+4, off+4+12
	if binary.LittleEndian.Uint32(img[first:]) != 1 || binary.LittleEndian.Uint32(img[second:]) != 2 {
		t.Fatalf("unexpected attribute section layout at %d", off)
	}
	for name, id := range map[string]uint32{"duplicate": 1, "descending": 0} {
		bad := append([]byte(nil), img...)
		binary.LittleEndian.PutUint32(bad[second:], id)
		path := filepath.Join(dir, name+".egoc")
		if err := os.WriteFile(path, patchCRC(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(path, 0)
		var cfe *CorruptFileError
		if !errors.As(err, &cfe) {
			t.Fatalf("%s: Open err = %v, want *CorruptFileError", name, err)
		}
	}
}

func TestSaveAtomic(t *testing.T) {
	g := sampleGraph()
	dir := t.TempDir()
	path := filepath.Join(dir, "g.egoc")
	if err := Save(path, g); err != nil {
		t.Fatal(err)
	}
	// Overwriting an existing file must go through the same tmp+rename
	// path and leave no temporaries behind.
	if err := Save(path, g); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "g.egoc" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory not clean after save: %v", names)
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("saved file unreadable: %v", err)
	}
}
