package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Kind is the value type of a durable observation or truth, mirroring
// internal/data's property types without importing them: the durability
// substrate stores framed bytes, and the server converts at its
// boundary.
type Kind uint8

const (
	// Continuous marks a float64-valued record; Categorical a
	// string-valued one.
	Continuous  Kind = iota
	Categorical      // see Continuous
)

// Obs is one claim by name: the unit the binary codec encodes and the
// WAL persists, and also crhd's validated ingest claim — a batch is
// validated into Obs, logged as is, and appended to the dataset's claim
// log. Exactly one of F and Cat is meaningful, selected by Kind.
type Obs struct {
	// Source names the claiming source; Object and Property name the
	// entry it claims about.
	Source   string
	Object   string // see Source
	Property string // see Source
	// Kind selects the value payload: F for Continuous, Cat for
	// Categorical.
	Kind Kind
	F    float64 // see Kind
	Cat  string  // see Kind
	// TS is the observation's I-CRH timeline position; meaningful only
	// when HasTS is set.
	TS    int
	HasTS bool // see TS
}

// Observation flag bits (one byte per observation in the codec).
const (
	flagCategorical = 1 << 0
	flagHasTS       = 1 << 1
)

// maxFramePayload bounds a single framed record; anything larger is
// treated as corruption rather than allocated.
const maxFramePayload = 1 << 28 // 256 MiB

// strTable interns strings in first-mention order while encoding, so
// the codec's output is a pure function of the input sequence.
type strTable struct {
	byName map[string]uint64
	names  []string
}

func newStrTable() *strTable {
	return &strTable{byName: make(map[string]uint64)}
}

func (t *strTable) id(s string) uint64 {
	if id, ok := t.byName[s]; ok {
		return id
	}
	id := uint64(len(t.names))
	t.names = append(t.names, s)
	t.byName[s] = id
	return id
}

// appendString appends a length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// EncodeObservations encodes a batch of observations with the compact
// binary codec: one string table (source/object/property/category
// strings interned in first-mention order) followed by per-observation
// varint ids and typed values. The encoding is canonical — a pure
// function of the observation sequence — so recovery and replication
// can compare payloads byte-for-byte.
func EncodeObservations(batch []Obs) []byte {
	tab := newStrTable()
	body := make([]byte, 0, 8+12*len(batch))
	body = binary.AppendUvarint(body, uint64(len(batch)))
	for _, o := range batch {
		body = appendObs(body, tab, o)
	}
	out := make([]byte, 0, len(body)+8*len(tab.names)+4)
	out = binary.AppendUvarint(out, uint64(len(tab.names)))
	for _, s := range tab.names {
		out = appendString(out, s)
	}
	return append(out, body...)
}

// appendObs encodes one observation against the string table: a flags
// byte, the source, object and property ids, then the category id or
// the float's bits, then the timestamp when it has one. WAL records and
// snapshots share it.
func appendObs(dst []byte, tab *strTable, o Obs) []byte {
	var flags byte
	if o.Kind == Categorical {
		flags |= flagCategorical
	}
	if o.HasTS {
		flags |= flagHasTS
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, tab.id(o.Source))
	dst = binary.AppendUvarint(dst, tab.id(o.Object))
	dst = binary.AppendUvarint(dst, tab.id(o.Property))
	if o.Kind == Categorical {
		dst = binary.AppendUvarint(dst, tab.id(o.Cat))
	} else {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(o.F))
	}
	if o.HasTS {
		dst = binary.AppendVarint(dst, int64(o.TS))
	}
	return dst
}

// decoder walks an encoded payload with bounds checking; every read
// error is sticky so call sites can check once at the end of a group.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("wal: truncated or malformed uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("wal: truncated or malformed varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("wal: truncated record at offset %d", d.off)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail("wal: truncated float64 at offset %d", d.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("wal: string length %d exceeds remaining %d bytes", n, len(d.b)-d.off)
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// stringTable decodes the interned string table that prefixes every
// codec payload. The count is validated against the remaining bytes
// (every entry costs at least its one-byte length prefix) before any
// allocation, so corrupt counts cannot balloon memory.
func (d *decoder) stringTable() []string {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("wal: string table of %d entries exceeds remaining %d bytes", n, len(d.b)-d.off)
		return nil
	}
	names := make([]string, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		names = append(names, d.string())
	}
	return names
}

// tableString resolves a string-table index.
func (d *decoder) tableString(tab []string, id uint64, what string) string {
	if d.err != nil {
		return ""
	}
	if id >= uint64(len(tab)) {
		d.fail("wal: %s id %d out of range (table has %d strings)", what, id, len(tab))
		return ""
	}
	return tab[id]
}

// obs decodes one observation written by appendObs.
func (d *decoder) obs(tab []string) Obs {
	flags := d.byte()
	o := Obs{
		Source:   d.tableString(tab, d.uvarint(), "source"),
		Object:   d.tableString(tab, d.uvarint(), "object"),
		Property: d.tableString(tab, d.uvarint(), "property"),
	}
	if flags&flagCategorical != 0 {
		o.Kind = Categorical
		o.Cat = d.tableString(tab, d.uvarint(), "category")
	} else {
		o.F = d.float64()
	}
	if flags&flagHasTS != 0 {
		o.TS = int(d.varint())
		o.HasTS = true
	}
	return o
}

// DecodeObservations decodes a payload produced by EncodeObservations.
// It never panics on malformed input: every length, count, and table
// index is validated and the first violation is returned as an error.
func DecodeObservations(b []byte) ([]Obs, error) {
	d := &decoder{b: b}
	tab := d.stringTable()
	n := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	// The tightest real observation is 5 bytes (flags + four 1-byte
	// varints); reject counts the remaining bytes cannot possibly hold.
	if n > uint64(len(d.b)-d.off) {
		return nil, fmt.Errorf("wal: observation count %d exceeds remaining %d bytes", n, len(d.b)-d.off)
	}
	batch := make([]Obs, 0, n)
	for i := uint64(0); i < n; i++ {
		o := d.obs(tab)
		if d.err != nil {
			return nil, d.err
		}
		batch = append(batch, o)
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("wal: %d trailing bytes after %d observations", len(d.b)-d.off, n)
	}
	return batch, nil
}

// Frame layout: every durable record — WAL entry or snapshot body — is
// wrapped as [uint32 payload length][uint32 CRC32-IEEE of payload]
// [payload], all little-endian. A record whose length field runs past
// the file, or whose checksum does not match, is a torn or corrupt
// tail.
const frameHeader = 8

// appendFrame wraps payload in the length+CRC frame and appends it.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// tornTail reports whether a bad frame at off can be explained by a
// torn append — a crash cutting the final write short, or leaving its
// sectors partially unpersisted. Tearing only ever damages the last
// record written, so the damage must reach the end of the buffer: a
// checksum-bad frame with further data after it is interior corruption,
// which a torn write cannot produce.
func tornTail(b []byte, off int) bool {
	if off+frameHeader > len(b) {
		return true // header itself cut short
	}
	n := binary.LittleEndian.Uint32(b[off:])
	if n > maxFramePayload {
		// The length field never made it to disk; nothing after it is
		// parseable, so the whole remainder is the torn write.
		return true
	}
	end := uint64(off+frameHeader) + uint64(n)
	return end >= uint64(len(b))
}

// nextFrame extracts the frame starting at off, returning the payload
// and the offset just past it. ok is false when the bytes from off do
// not contain one whole, checksum-valid frame — the torn-tail signal.
func nextFrame(b []byte, off int) (payload []byte, next int, ok bool) {
	if off+frameHeader > len(b) {
		return nil, off, false
	}
	n := binary.LittleEndian.Uint32(b[off:])
	sum := binary.LittleEndian.Uint32(b[off+4:])
	if n > maxFramePayload || uint64(off+frameHeader)+uint64(n) > uint64(len(b)) {
		return nil, off, false
	}
	payload = b[off+frameHeader : off+frameHeader+int(n)]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, off, false
	}
	return payload, off + frameHeader + int(n), true
}
