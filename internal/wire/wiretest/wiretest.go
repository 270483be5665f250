// Package wiretest holds the checks every hand-written body codec is held to
// by its package's tests and Fuzz target: values round-trip, every strict
// prefix of an encoding is an error, arbitrary bytes never panic, and a count
// field never sizes an allocation out of proportion to the bytes received.
package wiretest

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

// codec is a message type whose pointer carries the AppendWire / DecodeWire
// pair internal/rpc sends as a binary body.
type codec[T any] interface {
	*T
	AppendWire([]byte) []byte
	DecodeWire([]byte) error
}

// Allocated returns the heap bytes fn's run added to the process total.
func Allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Decode decodes data into a fresh T and fails the test if doing so allocated
// more than a small multiple of len(data): in memory an element is a few
// times its smallest encoding, never unbounded by it. The heap counter is the
// process's, so a reading over the bound is taken again before it counts —
// another goroutine's allocation does not repeat, a decoder's does.
func Decode[T any, P codec[T]](t testing.TB, data []byte) (v T, err error) {
	t.Helper()
	max := uint64(64*len(data) + 4096)
	for try := 1; ; try++ {
		var fresh T
		got := Allocated(func() { err = P(&fresh).DecodeWire(data) })
		if got <= max {
			return fresh, err
		} else if try == 3 {
			t.Fatalf("decoding %d bytes into %T allocated %d bytes, bound %d", len(data), v, got, max)
		}
	}
}

// RoundTrip encodes v, requires the decoding to equal it and every strict
// prefix of the encoding to be an error, and returns the encoding.
func RoundTrip[T any, P codec[T]](t testing.TB, v T) []byte {
	t.Helper()
	enc := P(&v).AppendWire(nil)
	if got, err := Decode[T, P](t, enc); err != nil || !reflect.DeepEqual(got, v) {
		t.Fatalf("round trip of %T:\n got %+v (%v)\nwant %+v", v, got, err, v)
	}
	for i := range enc {
		if _, err := Decode[T, P](t, enc[:i]); err == nil {
			t.Fatalf("%T: the %d-byte prefix of a %d-byte body decoded without error", v, i, len(enc))
		}
	}
	return enc
}

// Fuzz feeds arbitrary bytes to T's decoder: it must not panic or over-allocate
// (Decode), and whatever it accepts must re-encode to a fixed point.
func Fuzz[T any, P codec[T]](t testing.TB, data []byte) {
	t.Helper()
	v, err := Decode[T, P](t, data)
	if err != nil {
		return
	}
	enc := P(&v).AppendWire(nil)
	again, err := Decode[T, P](t, enc)
	if err != nil || !bytes.Equal(P(&again).AppendWire(nil), enc) {
		t.Fatalf("%T decoded from %x re-encodes to %x, which does not decode back to itself (%v)", v, data, enc, err)
	}
}
