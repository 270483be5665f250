package wire

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrMalformed is what a Reader reports for a truncated, overlong or
// trailing-garbage body.
var ErrMalformed = errors.New("wire: malformed body")

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v as a zig-zag varint (durations, levels, signed counts).
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendString appends s behind its uvarint length.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendFloat64 appends f as its eight IEEE-754 bytes, little-endian.
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendBool appends one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Reader consumes a body front to back. The first field that does not fit in
// the bytes that remain latches it: every later read returns zero and Done
// reports ErrMalformed, so a decoder checks once, at the end.
type Reader struct {
	buf []byte
	bad bool
}

// NewReader reads from b without copying it.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

func (r *Reader) latch() { r.bad, r.buf = true, nil }

// take returns the next n bytes, or latches the reader when fewer remain.
func (r *Reader) take(n uint64) []byte {
	if r.bad || n > uint64(len(r.buf)) {
		r.latch()
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 || r.bad { // truncated or overflowing
		r.latch()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a zig-zag varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Bytes reads a length-prefixed field as a view into the body.
func (r *Reader) Bytes() []byte { return r.take(r.Uvarint()) }

// String reads a length-prefixed field into a fresh string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 {
		r.latch()
	}
	return b == 1
}

// Float64 reads eight little-endian IEEE-754 bytes.
func (r *Reader) Float64() float64 {
	if b := r.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// Make reads an element count and returns a zeroed slice of that many T for
// the decoder to fill, nil for none. A count whose elements, at min encoded
// bytes each, could not fit in what remains latches the reader instead — so a
// count field never sizes an allocation beyond the bytes actually received.
func Make[T any](r *Reader, min int) []T {
	n := r.Uvarint()
	if n > uint64(len(r.buf)/min) {
		r.latch()
		return nil
	} else if n == 0 {
		return nil
	}
	return make([]T, n)
}

// Rest consumes and returns the unread bytes.
func (r *Reader) Rest() []byte { return r.take(uint64(len(r.buf))) }

// Done reports ErrMalformed if any read failed or bytes are left over.
func (r *Reader) Done() error {
	if r.bad || len(r.buf) > 0 {
		return ErrMalformed
	}
	return nil
}
