package wire

import (
	"bytes"
	"math"
	"testing"
)

func TestAppendReadRoundTrip(t *testing.T) {
	b := AppendUvarint(nil, math.MaxUint64)
	b = AppendVarint(AppendVarint(b, math.MinInt64), -1)
	b = AppendString(AppendString(b, ""), "QA_1")
	b = AppendBool(AppendBool(AppendFloat64(b, -0.25), true), false)
	b = append(AppendUvarint(b, 3), 7, 8, 9)

	r := NewReader(b)
	if v := r.Uvarint(); v != math.MaxUint64 {
		t.Errorf("uvarint = %d", v)
	}
	if a, b := r.Varint(), r.Varint(); a != math.MinInt64 || b != -1 {
		t.Errorf("varints = %d, %d", a, b)
	}
	if a, b := r.String(), r.String(); a != "" || b != "QA_1" {
		t.Errorf("strings = %q, %q", a, b)
	}
	if f, x, y := r.Float64(), r.Bool(), r.Bool(); f != -0.25 || !x || y {
		t.Errorf("float, bools = %v, %v, %v", f, x, y)
	}
	if s := Make[byte](r, 1); len(s) != 3 || !bytes.Equal(r.Rest(), []byte{7, 8, 9}) || r.Done() != nil {
		t.Errorf("made %d elements, done = %v", len(s), r.Done())
	}
}

// TestReaderLatches: each way a field can fail to fit latches the reader —
// later reads return zero, Done reports it — and none of them panics.
func TestReaderLatches(t *testing.T) {
	overflow := bytes.Repeat([]byte{0xff}, 11)
	for name, tc := range map[string]struct {
		body []byte
		read func(*Reader)
	}{
		"empty uvarint":      {nil, func(r *Reader) { r.Uvarint() }},
		"truncated uvarint":  {[]byte{0x80}, func(r *Reader) { r.Uvarint() }},
		"overflowing varint": {overflow, func(r *Reader) { r.Varint() }},
		"short string":       {[]byte{5, 'a', 'b'}, func(r *Reader) { _ = r.String() }},
		"huge string length": {append(AppendUvarint(nil, math.MaxUint64), 'a'), func(r *Reader) { r.Bytes() }},
		"short float":        {[]byte{1, 2, 3, 4, 5, 6, 7}, func(r *Reader) { r.Float64() }},
		"bool of 2":          {[]byte{2}, func(r *Reader) { r.Bool() }},
		"count over rest":    {[]byte{3, 0, 0, 0, 0, 0}, func(r *Reader) { Make[int64](r, 2) }},
		"trailing byte":      {[]byte{1, 0}, func(r *Reader) { r.Byte() }},
	} {
		r := NewReader(tc.body)
		tc.read(r)
		if r.Done() != ErrMalformed {
			t.Errorf("%s: Done = %v, want ErrMalformed", name, r.Done())
		}
		if name != "trailing byte" && (r.Uvarint() != 0 || r.String() != "" || Make[byte](r, 1) != nil || r.Rest() != nil) {
			t.Errorf("%s: a latched reader still returns data", name)
		}
	}
}
