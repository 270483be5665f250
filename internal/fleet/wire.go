package fleet

import (
	"time"

	"powerchief/internal/arbiter"
	"powerchief/internal/cmp"
	"powerchief/internal/stats"
	"powerchief/internal/wire"
)

// The heartbeat's two bodies are hand-encoded (layouts in DESIGN.md §5j), so
// an epoch over N nodes is 2N binary exchanges and no reflection; node.info,
// asked once per dial, stays JSON.

// AppendWire appends the scalars, the per-stage breakdown and the optional
// ingest delta.
func (rep Report) AppendWire(b []byte) []byte {
	b = wire.AppendVarint(wire.AppendUvarint(wire.AppendString(b, rep.Node), rep.Epoch), int64(rep.Metric))
	b = wire.AppendFloat64(wire.AppendFloat64(b, float64(rep.Draw)), float64(rep.Budget))
	b = wire.AppendUvarint(b, uint64(len(rep.Stages)))
	for _, st := range rep.Stages {
		b = wire.AppendVarint(wire.AppendString(b, st.Stage), int64(st.Metric))
	}
	return stats.AppendDelta(b, rep.Ingest)
}

// DecodeWire is AppendWire's inverse.
func (rep *Report) DecodeWire(b []byte) error {
	r := wire.NewReader(b)
	*rep = Report{
		Node: r.String(), Epoch: r.Uvarint(), Metric: time.Duration(r.Varint()),
		Draw: cmp.Watts(r.Float64()), Budget: cmp.Watts(r.Float64()),
		Stages: wire.Make[arbiter.StageMetric](r, 2),
	}
	for i := range rep.Stages {
		rep.Stages[i] = arbiter.StageMetric{Stage: r.String(), Metric: time.Duration(r.Varint())}
	}
	rep.Ingest = stats.ReadDelta(r)
	return r.Done()
}

// AppendWire appends the granted watts and the fencing epoch.
func (g Grant) AppendWire(b []byte) []byte {
	return wire.AppendUvarint(wire.AppendFloat64(b, float64(g.Watts)), g.Epoch)
}

// DecodeWire is AppendWire's inverse.
func (g *Grant) DecodeWire(b []byte) error {
	r := wire.NewReader(b)
	g.Watts, g.Epoch = cmp.Watts(r.Float64()), r.Uvarint()
	return r.Done()
}
