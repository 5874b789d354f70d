// Package bitpack provides compact two-bit-per-element arrays used to store
// the rhythmic pixel encoding mask (EncMask).
//
// The EncMask assigns every pixel of the original (pre-encoding) frame one of
// four codes describing how the pixel was sampled in space and time:
//
//	N  (00) — non-regional pixel
//	St (01) — regional pixel, but removed by spatial stride
//	Sk (10) — regional pixel, but temporally skipped this frame
//	R  (11) — regional pixel, present in the encoded frame
//
// The decoder's pixel address translation needs fast "how many R codes occur
// before element i" queries, so the package maintains byte-granularity
// popcount tables for the R code.
package bitpack

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Code is a two-bit EncMask entry.
type Code uint8

// The four EncMask codes, as defined by the paper (§3.3).
const (
	CodeN  Code = 0 // 00: non-regional pixel
	CodeSt Code = 1 // 01: regional but spatially strided out
	CodeSk Code = 2 // 10: regional but temporally skipped
	CodeR  Code = 3 // 11: regional pixel, stored in the encoded frame
)

// String returns the paper's mnemonic for the code.
func (c Code) String() string {
	switch c {
	case CodeN:
		return "N"
	case CodeSt:
		return "St"
	case CodeSk:
		return "Sk"
	case CodeR:
		return "R"
	}
	return fmt.Sprintf("Code(%d)", uint8(c))
}

// Valid reports whether c is one of the four defined codes.
func (c Code) Valid() bool { return c <= CodeR }

// rCountTable[b] is the number of "11" two-bit fields in byte b.
var rCountTable [256]uint8

// rPrefixTable[b][k] is the number of "11" fields among the first k (0..4)
// two-bit fields of byte b, where field 0 occupies the low-order bits.
var rPrefixTable [256][5]uint8

func init() {
	for b := 0; b < 256; b++ {
		var total uint8
		for f := 0; f < 4; f++ {
			code := (b >> (2 * f)) & 0x3
			rPrefixTable[b][f] = total
			if code == 3 {
				total++
			}
		}
		rPrefixTable[b][4] = total
		rCountTable[b] = total
	}
}

// Mask2 is a fixed-length array of two-bit codes. Element 0 occupies the two
// low-order bits of byte 0, matching the raster-scan packing order the
// hardware EncMask uses.
type Mask2 struct {
	n    int
	data []byte
}

// NewMask2 returns a Mask2 with n elements, all initialized to CodeN.
func NewMask2(n int) *Mask2 {
	if n < 0 {
		panic("bitpack: negative length")
	}
	return &Mask2{n: n, data: make([]byte, (n+3)/4)}
}

// FromBytes wraps an existing packed buffer holding n two-bit elements.
// The buffer must be at least ceil(n/4) bytes; it is used without copying.
//
// The mask is canonicalized in place: the buffer is trimmed to exactly
// ceil(n/4) bytes (so SizeBytes never over-reports) and the unused
// high-order fields of the final byte are cleared (so a deserialized mask
// re-serializes to the same bytes an encoder-built one produces, and Equal
// compares codes rather than padding garbage). Callers keeping a reference
// to data should expect that final byte to be rewritten.
func FromBytes(data []byte, n int) (*Mask2, error) {
	m := new(Mask2)
	if err := m.SetBytes(data, n); err != nil {
		return nil, err
	}
	return m, nil
}

// SetBytes is FromBytes into an existing Mask2: m becomes a view of data
// holding n elements, canonicalized the same way, and drops its previous
// storage. On error m is unchanged.
func (m *Mask2) SetBytes(data []byte, n int) error {
	need := (n + 3) / 4
	if len(data) < need {
		return fmt.Errorf("bitpack: buffer holds %d bytes, need %d for %d elements", len(data), need, n)
	}
	data = data[:need]
	if rem := n & 3; rem != 0 {
		data[need-1] &= byte(1)<<(uint(rem)*2) - 1
	}
	m.n, m.data = n, data
	return nil
}

// Len returns the number of two-bit elements.
func (m *Mask2) Len() int { return m.n }

// Bytes returns the underlying packed storage. The final byte may contain
// unused high-order fields, which are kept at zero by Set.
func (m *Mask2) Bytes() []byte { return m.data }

// SizeBytes returns the storage footprint in bytes (the paper's "8% of the
// original frame data" metadata overhead comes from this: 2 bits per pixel
// of an 8-bit frame is 1/4 of the pixel data).
func (m *Mask2) SizeBytes() int { return len(m.data) }

// Get returns element i.
func (m *Mask2) Get(i int) Code {
	if i < 0 || i >= m.n {
		panic(fmt.Sprintf("bitpack: index %d out of range [0,%d)", i, m.n))
	}
	return Code((m.data[i>>2] >> uint((i&3)*2)) & 0x3)
}

// Set stores code c at element i.
func (m *Mask2) Set(i int, c Code) {
	if i < 0 || i >= m.n {
		panic(fmt.Sprintf("bitpack: index %d out of range [0,%d)", i, m.n))
	}
	if !c.Valid() {
		panic("bitpack: invalid code")
	}
	shift := uint((i & 3) * 2)
	b := m.data[i>>2]
	b &^= 0x3 << shift
	b |= byte(c) << shift
	m.data[i>>2] = b
}

// Fill sets elements [lo, hi) to code c.
func (m *Mask2) Fill(lo, hi int, c Code) {
	if lo < 0 || hi > m.n || lo > hi {
		panic(fmt.Sprintf("bitpack: fill range [%d,%d) out of range [0,%d]", lo, hi, m.n))
	}
	// Head: align lo up to a byte boundary.
	for lo < hi && lo&3 != 0 {
		m.Set(lo, c)
		lo++
	}
	// Middle: whole bytes.
	pattern := byte(c) | byte(c)<<2 | byte(c)<<4 | byte(c)<<6
	for ; hi-lo >= 4; lo += 4 {
		m.data[lo>>2] = pattern
	}
	// Tail.
	for ; lo < hi; lo++ {
		m.Set(lo, c)
	}
}

// WriteRow stores codes into elements [lo, lo+len(codes)), packing four
// codes per byte. The codes are ORed into place, so the fields a partial
// first or last byte shares with neighbouring elements survive; the written
// elements must therefore hold CodeN beforehand (a fresh or Reset mask),
// which is how the encoders fill a frame's mask row by row. Codes must be
// valid.
func (m *Mask2) WriteRow(lo int, codes []Code) {
	hi := lo + len(codes)
	if lo < 0 || hi > m.n {
		panic(fmt.Sprintf("bitpack: row [%d,%d) out of range [0,%d]", lo, hi, m.n))
	}
	i := lo
	for ; i < hi && i&3 != 0; i++ {
		m.data[i>>2] |= byte(codes[i-lo]) << uint((i&3)*2)
	}
	// Two whole bytes per step: the eight codes load as one little-endian
	// word, one code per byte lane, and two shift-or-mask steps gather each
	// lane pair into a nibble and each nibble pair into a byte.
	for ; hi-i >= 8; i += 8 {
		c := codes[i-lo : i-lo+8 : i-lo+8]
		v := uint64(c[0]) | uint64(c[1])<<8 | uint64(c[2])<<16 | uint64(c[3])<<24 |
			uint64(c[4])<<32 | uint64(c[5])<<40 | uint64(c[6])<<48 | uint64(c[7])<<56
		v = (v | v>>6) & 0x000F000F000F000F
		v = (v | v>>12) & 0x000000FF000000FF
		m.data[i>>2] = byte(v)
		m.data[i>>2+1] = byte(v >> 32)
	}
	for ; i < hi; i++ {
		m.data[i>>2] |= byte(codes[i-lo]) << uint((i&3)*2)
	}
}

// Reset sets every element to CodeN.
func (m *Mask2) Reset() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// countRBytes counts the "11" two-bit fields across whole packed bytes,
// eight bytes (32 mask elements) per step. A field is R exactly when both of
// its bits are set, so `w & (w>>1)` puts a marker on each field's low bit and
// masking with 0x55… isolates those markers for a single OnesCount64.
// Two-bit fields never straddle byte boundaries (4 fields per byte), so the
// little-endian uint64 load preserves field alignment.
func countRBytes(data []byte) int {
	total := 0
	for len(data) >= 8 {
		w := binary.LittleEndian.Uint64(data)
		total += bits.OnesCount64(w & (w >> 1) & 0x5555555555555555)
		data = data[8:]
	}
	for _, b := range data {
		total += int(rCountTable[b])
	}
	return total
}

// CountR returns the number of CodeR elements in [0, hi).
//
// This is the decoder's column-offset primitive: "the count of the number of
// full regional pixels from the start of the row until that pixel (the number
// of 11 entries in the EncMask)" (§4.2.1). Whole bytes are counted 32
// elements at a time via a masked popcount; only the trailing partial byte
// consults the prefix table.
func (m *Mask2) CountR(hi int) int {
	if hi < 0 || hi > m.n {
		panic(fmt.Sprintf("bitpack: CountR bound %d out of range [0,%d]", hi, m.n))
	}
	total := countRBytes(m.data[:hi>>2])
	if rem := hi & 3; rem != 0 {
		total += int(rPrefixTable[m.data[hi>>2]][rem])
	}
	return total
}

// CountRRange returns the number of CodeR elements in [lo, hi). It scans
// only the covered bytes, so the cost is O((hi-lo)/4) regardless of where
// the range sits in the mask.
func (m *Mask2) CountRRange(lo, hi int) int {
	if lo < 0 || hi > m.n || lo > hi {
		panic(fmt.Sprintf("bitpack: range [%d,%d) out of range [0,%d]", lo, hi, m.n))
	}
	if lo == hi {
		return 0
	}
	loByte, hiByte := lo>>2, hi>>2
	if loByte == hiByte {
		// Within one byte: prefix difference.
		b := m.data[loByte]
		return int(rPrefixTable[b][hi&3]) - int(rPrefixTable[b][lo&3])
	}
	total := 0
	// Head: elements [lo, end of its byte).
	if rem := lo & 3; rem != 0 {
		total += int(rPrefixTable[m.data[loByte]][4]) - int(rPrefixTable[m.data[loByte]][rem])
		loByte++
	}
	// Middle: whole bytes, word at a time.
	total += countRBytes(m.data[loByte:hiByte])
	// Tail: elements [start of hi's byte, hi).
	if rem := hi & 3; rem != 0 {
		total += int(rPrefixTable[m.data[hiByte]][rem])
	}
	return total
}

// Histogram returns the number of elements holding each of the four codes.
func (m *Mask2) Histogram() [4]int {
	var h [4]int
	for i := 0; i < m.n; i++ {
		h[m.Get(i)]++
	}
	return h
}

// Clone returns a deep copy of m.
func (m *Mask2) Clone() *Mask2 {
	c := &Mask2{n: m.n, data: make([]byte, len(m.data))}
	copy(c.data, m.data)
	return c
}

// Equal reports whether m and o hold identical elements.
func (m *Mask2) Equal(o *Mask2) bool {
	if m.n != o.n {
		return false
	}
	for i, b := range m.data {
		if b != o.data[i] {
			return false
		}
	}
	return true
}
