package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Prop declares one property of a snapshotted dataset: its name and
// value kind, in declaration order (the order fixes property indices on
// rebuild).
type Prop struct {
	// Name identifies the property; Kind its value type.
	Name string
	Kind Kind // see Name
}

// Truth is one resolved or ground-truth value in a snapshot. Exactly
// one of F and Cat is meaningful, selected by Kind.
type Truth struct {
	// Object and Property name the entry the value belongs to.
	Object   string
	Property string // see Object
	// Kind selects the payload: F for Continuous, Cat for Categorical.
	Kind Kind
	F    float64 // see Kind
	Cat  string  // see Kind
}

// Snapshot serializes a dataset entry's complete state at a version
// boundary: the canonical observation log everything is rebuilt from,
// the interning orders that fix source/property indices, the optional
// ground truth, and the warm I-CRH processor state — enough to resume
// ingest bit-for-bit identically to a process that never stopped.
type Snapshot struct {
	// Version is the dataset version the snapshot captures.
	Version int64
	// Sources and Props record the interning orders (source k of the
	// rebuilt dataset is Sources[k]).
	Sources []string
	Props   []Prop // see Sources
	// Obs is the canonical append-only observation log.
	Obs []Obs
	// GT is the ground truth uploaded at create time, empty when none.
	GT []Truth
	// Weights, Accum, and Chunks are the I-CRH processor state: current
	// source weights, decayed accumulated distances (aligned with
	// Sources), and the number of chunks processed.
	Weights []float64
	Accum   []float64 // see Weights
	Chunks  int       // see Weights
	// Warm holds the incremental truths accumulated by live ingest,
	// sorted by (object, property) for a canonical encoding.
	Warm []Truth
}

// snapMagic heads every snapshot file; the trailing byte versions the
// format.
var snapMagic = []byte("crhsnap\x01")

const (
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

func snapName(version int64) string {
	return fmt.Sprintf("%s%020d%s", snapPrefix, version, snapSuffix)
}

// parseSnapName extracts the version of a snapshot file name.
func parseSnapName(name string) (int64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	var v int64
	if _, err := fmt.Sscanf(name[len(snapPrefix):len(name)-len(snapSuffix)], "%d", &v); err != nil {
		return 0, false
	}
	return v, true
}

// appendTruth encodes one Truth against the string table.
func appendTruth(dst []byte, tab *strTable, t Truth) []byte {
	dst = binary.AppendUvarint(dst, tab.id(t.Object))
	dst = binary.AppendUvarint(dst, tab.id(t.Property))
	dst = append(dst, byte(t.Kind))
	if t.Kind == Categorical {
		return binary.AppendUvarint(dst, tab.id(t.Cat))
	}
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(t.F))
}

func (d *decoder) truth(tab []string) Truth {
	t := Truth{
		Object:   d.tableString(tab, d.uvarint(), "object"),
		Property: d.tableString(tab, d.uvarint(), "property"),
	}
	switch Kind(d.byte()) {
	case Categorical:
		t.Kind = Categorical
		t.Cat = d.tableString(tab, d.uvarint(), "category")
	default:
		t.F = d.float64()
	}
	return t
}

// encodeSnapshot serializes a snapshot to its framed payload. Warm
// truths are sorted by (object, property) so the encoding is canonical.
func encodeSnapshot(s *Snapshot) []byte {
	warm := append([]Truth(nil), s.Warm...)
	sort.Slice(warm, func(i, j int) bool {
		if warm[i].Object != warm[j].Object {
			return warm[i].Object < warm[j].Object
		}
		return warm[i].Property < warm[j].Property
	})

	tab := newStrTable()
	body := make([]byte, 0, 64+16*len(s.Obs))
	body = binary.AppendUvarint(body, uint64(s.Version))
	body = binary.AppendUvarint(body, uint64(len(s.Sources)))
	for _, src := range s.Sources {
		body = binary.AppendUvarint(body, tab.id(src))
	}
	body = binary.AppendUvarint(body, uint64(len(s.Props)))
	for _, p := range s.Props {
		body = binary.AppendUvarint(body, tab.id(p.Name))
		body = append(body, byte(p.Kind))
	}
	body = binary.AppendUvarint(body, uint64(len(s.Obs)))
	for _, o := range s.Obs {
		body = appendObs(body, tab, o)
	}
	body = binary.AppendUvarint(body, uint64(len(s.GT)))
	for _, t := range s.GT {
		body = appendTruth(body, tab, t)
	}
	body = binary.AppendUvarint(body, uint64(len(s.Weights)))
	for _, w := range s.Weights {
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(w))
	}
	body = binary.AppendUvarint(body, uint64(len(s.Accum)))
	for _, a := range s.Accum {
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(a))
	}
	body = binary.AppendUvarint(body, uint64(s.Chunks))
	body = binary.AppendUvarint(body, uint64(len(warm)))
	for _, t := range warm {
		body = appendTruth(body, tab, t)
	}

	out := make([]byte, 0, len(body)+16*len(tab.names))
	out = binary.AppendUvarint(out, uint64(len(tab.names)))
	for _, name := range tab.names {
		out = appendString(out, name)
	}
	return append(out, body...)
}

// floats decodes a length-prefixed float64 vector.
func (d *decoder) floats() []float64 {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off)/8 {
		d.fail("wal: float vector of %d entries exceeds remaining %d bytes", n, len(d.b)-d.off)
		return nil
	}
	out := make([]float64, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		out = append(out, d.float64())
	}
	return out
}

// decodeSnapshot parses a framed snapshot payload. Like the observation
// decoder it never panics: every count and index is validated.
func decodeSnapshot(payload []byte) (*Snapshot, error) {
	d := &decoder{b: payload}
	tab := d.stringTable()
	s := &Snapshot{Version: int64(d.uvarint())}

	nSrc := d.uvarint()
	if d.err == nil && nSrc > uint64(len(d.b)-d.off) {
		d.fail("wal: source count %d exceeds remaining %d bytes", nSrc, len(d.b)-d.off)
	}
	for i := uint64(0); i < nSrc && d.err == nil; i++ {
		s.Sources = append(s.Sources, d.tableString(tab, d.uvarint(), "source"))
	}
	nProp := d.uvarint()
	if d.err == nil && nProp > uint64(len(d.b)-d.off) {
		d.fail("wal: property count %d exceeds remaining %d bytes", nProp, len(d.b)-d.off)
	}
	for i := uint64(0); i < nProp && d.err == nil; i++ {
		p := Prop{Name: d.tableString(tab, d.uvarint(), "property")}
		if k := Kind(d.byte()); k == Categorical {
			p.Kind = Categorical
		}
		s.Props = append(s.Props, p)
	}
	nObs := d.uvarint()
	if d.err == nil && nObs > uint64(len(d.b)-d.off) {
		d.fail("wal: observation count %d exceeds remaining %d bytes", nObs, len(d.b)-d.off)
	}
	for i := uint64(0); i < nObs && d.err == nil; i++ {
		s.Obs = append(s.Obs, d.obs(tab))
	}
	nGT := d.uvarint()
	if d.err == nil && nGT > uint64(len(d.b)-d.off) {
		d.fail("wal: ground-truth count %d exceeds remaining %d bytes", nGT, len(d.b)-d.off)
	}
	for i := uint64(0); i < nGT && d.err == nil; i++ {
		s.GT = append(s.GT, d.truth(tab))
	}
	s.Weights = d.floats()
	s.Accum = d.floats()
	s.Chunks = int(d.uvarint())
	nWarm := d.uvarint()
	if d.err == nil && nWarm > uint64(len(d.b)-d.off) {
		d.fail("wal: warm-truth count %d exceeds remaining %d bytes", nWarm, len(d.b)-d.off)
	}
	for i := uint64(0); i < nWarm && d.err == nil; i++ {
		s.Warm = append(s.Warm, d.truth(tab))
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("wal: %d trailing bytes after snapshot", len(d.b)-d.off)
	}
	return s, nil
}

// writeSnapshotFile atomically writes the snapshot into dir: the framed
// payload goes to a temp file which is fsynced, renamed into place, and
// the directory fsynced — a crash leaves either the old set of
// snapshots or the new one, never a partial file under the final name.
func writeSnapshotFile(dir string, s *Snapshot) error {
	buf := append([]byte(nil), snapMagic...)
	buf = appendFrame(buf, encodeSnapshot(s))
	final := filepath.Join(dir, snapName(s.Version))
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	if err := syncPath(tmp); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncPath(dir)
}

// readSnapshotFile loads and validates one snapshot file.
func readSnapshotFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != string(snapMagic) {
		return nil, fmt.Errorf("wal: %s: bad snapshot magic", filepath.Base(path))
	}
	payload, next, ok := nextFrame(data, len(snapMagic))
	if !ok || next != len(data) {
		return nil, fmt.Errorf("wal: %s: damaged snapshot frame", filepath.Base(path))
	}
	return decodeSnapshot(payload)
}

// ErrNoSnapshot reports a dataset directory holding no loadable
// snapshot — an incomplete creation or unrecoverable damage.
var ErrNoSnapshot = errors.New("wal: no loadable snapshot")

// loadLatestSnapshot returns the newest snapshot in dir that decodes
// cleanly, falling back to older ones when the newest is damaged (a
// crash can interleave with compaction's cleanup).
func loadLatestSnapshot(dir string) (*Snapshot, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNoSnapshot
		}
		return nil, err
	}
	var versions []int64
	for _, e := range entries {
		if v, ok := parseSnapName(e.Name()); ok && !e.IsDir() {
			versions = append(versions, v)
		}
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] > versions[j] })
	for _, v := range versions {
		s, err := readSnapshotFile(filepath.Join(dir, snapName(v)))
		if err == nil {
			return s, nil
		}
	}
	return nil, ErrNoSnapshot
}

// pruneSnapshots removes every snapshot older than keepVersion.
func pruneSnapshots(dir string, keepVersion int64) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	removed := false
	for _, e := range entries {
		if v, ok := parseSnapName(e.Name()); ok && v < keepVersion {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !os.IsNotExist(err) {
				return err
			}
			removed = true
		}
	}
	if removed {
		return syncPath(dir)
	}
	return nil
}
