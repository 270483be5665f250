package dist

import (
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/stats"
	"powerchief/internal/wire"
)

// The bodies of the per-query and per-tick methods — stage.process and
// stage.stats — are hand-encoded (layouts in DESIGN.md §5j): internal/rpc
// sends a type with this AppendWire / DecodeWire pair as a binary body, and
// everything else (clone, withdraw, info, ingest, setlevel) as JSON.

// AppendWire appends the query id, the work row and the trace bit.
func (a ProcessArgs) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(wire.AppendUvarint(b, a.QueryID), uint64(len(a.Work)))
	for _, w := range a.Work {
		b = wire.AppendVarint(b, int64(w))
	}
	return wire.AppendBool(b, a.Trace)
}

// DecodeWire is AppendWire's inverse.
func (a *ProcessArgs) DecodeWire(b []byte) error {
	r := wire.NewReader(b)
	a.QueryID, a.Work = r.Uvarint(), wire.Make[time.Duration](r, 1)
	for i := range a.Work {
		a.Work[i] = time.Duration(r.Varint())
	}
	a.Trace = r.Bool()
	return r.Done()
}

// AppendWire appends the records field by field, then the optional delta.
func (p ProcessReply) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(p.Records)))
	for i := range p.Records {
		rec := &p.Records[i]
		b = wire.AppendString(wire.AppendString(b, rec.Instance), rec.Stage)
		b = wire.AppendVarint(wire.AppendVarint(wire.AppendVarint(b, int64(rec.QueueEnter)), int64(rec.ServeStart)), int64(rec.ServeEnd))
		b = wire.AppendBool(wire.AppendVarint(b, int64(rec.Level)), rec.Boosted)
	}
	return stats.AppendDelta(b, p.Delta)
}

// DecodeWire is AppendWire's inverse.
func (p *ProcessReply) DecodeWire(b []byte) error {
	r := wire.NewReader(b)
	p.Records = wire.Make[RecordWire](r, 7)
	for i := range p.Records {
		p.Records[i] = RecordWire{
			Instance: r.String(), Stage: r.String(),
			QueueEnter: time.Duration(r.Varint()), ServeStart: time.Duration(r.Varint()), ServeEnd: time.Duration(r.Varint()),
			Level: int(r.Varint()), Boosted: r.Bool(),
		}
	}
	p.Delta = stats.ReadDelta(r)
	return r.Done()
}

// AppendWire appends the instance snapshot, then the optional delta.
func (s StatsReply) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(s.Instances)))
	for _, in := range s.Instances {
		b = wire.AppendVarint(wire.AppendVarint(wire.AppendString(b, in.Name), int64(in.QueueLen)), int64(in.Level))
		b = wire.AppendFloat64(b, in.Utilization)
	}
	return stats.AppendDelta(b, s.Delta)
}

// DecodeWire is AppendWire's inverse.
func (s *StatsReply) DecodeWire(b []byte) error {
	r := wire.NewReader(b)
	s.Instances = wire.Make[InstanceStats](r, 11)
	for i := range s.Instances {
		s.Instances[i] = InstanceStats{Name: r.String(), QueueLen: int(r.Varint()), Level: cmp.Level(r.Varint()), Utilization: r.Float64()}
	}
	s.Delta = stats.ReadDelta(r)
	return r.Done()
}
