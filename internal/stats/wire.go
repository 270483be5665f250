package stats

import "powerchief/internal/wire"

// AppendWire appends the delta's binary encoding (DESIGN.md §5j): the scalar
// fields as varints, the optional E2E digest, the per-instance digests. With
// DecodeWire it makes *Delta a binary rpc body.
func (d *Delta) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(wire.AppendUvarint(wire.AppendUvarint(b, uint64(d.V)), d.Seq), d.Queries)
	b = wire.AppendVarint(wire.AppendVarint(b, d.FirstNS), d.LastNS)
	b = wire.AppendUvarint(d.E2E.appendWire(b), uint64(len(d.Insts)))
	for i := range d.Insts {
		in := &d.Insts[i]
		b = wire.AppendString(wire.AppendString(b, in.Instance), in.Stage)
		b = in.Serving.appendWire(in.Queuing.appendWire(b))
	}
	return b
}

// DecodeWire is AppendWire's inverse; it rejects truncated and trailing
// bytes, and leaves version and bin layout to Validate.
func (d *Delta) DecodeWire(b []byte) error {
	r := wire.NewReader(b)
	d.readWire(r)
	return r.Done()
}

func (d *Delta) readWire(r *wire.Reader) {
	*d = Delta{
		V: int(r.Uvarint()), Seq: r.Uvarint(), Queries: r.Uvarint(), FirstNS: r.Varint(), LastNS: r.Varint(),
		E2E: readDigest(r), Insts: wire.Make[InstDelta](r, 4),
	}
	for i := range d.Insts {
		d.Insts[i] = InstDelta{Instance: r.String(), Stage: r.String(), Queuing: readDigest(r), Serving: readDigest(r)}
	}
}

// AppendDelta is how a message embeds an optional delta: a presence byte,
// then the encoding of a non-nil d. ReadDelta is its inverse.
func AppendDelta(b []byte, d *Delta) []byte {
	if d == nil {
		return append(b, 0)
	}
	return d.AppendWire(append(b, 1))
}

// ReadDelta reads what AppendDelta appended.
func ReadDelta(r *wire.Reader) *Delta {
	if !r.Bool() {
		return nil
	}
	d := new(Delta)
	d.readWire(r)
	return d
}

// appendWire appends a presence byte and, for a non-nil digest, its fields.
func (h *HistogramDigest) appendWire(b []byte) []byte {
	if h == nil {
		return append(b, 0)
	}
	b = wire.AppendUvarint(wire.AppendFloat64(append(b, 1), h.Growth), h.Count)
	b = wire.AppendVarint(wire.AppendVarint(wire.AppendVarint(b, h.SumNS), h.MinNS), h.MaxNS)
	b = wire.AppendUvarint(wire.AppendUvarint(b, h.Overflow), uint64(len(h.Bins)))
	for _, bin := range h.Bins {
		b = wire.AppendUvarint(wire.AppendVarint(b, int64(bin.Index)), bin.Count)
	}
	return b
}

func readDigest(r *wire.Reader) *HistogramDigest {
	if !r.Bool() {
		return nil
	}
	h := &HistogramDigest{
		Growth: r.Float64(), Count: r.Uvarint(), SumNS: r.Varint(), MinNS: r.Varint(), MaxNS: r.Varint(), Overflow: r.Uvarint(),
		Bins: wire.Make[DigestBin](r, 2),
	}
	for i := range h.Bins {
		h.Bins[i] = DigestBin{Index: int(r.Varint()), Count: r.Uvarint()}
	}
	return h
}
