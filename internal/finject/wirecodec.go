package finject

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/wire"
)

// Wire codec for campaign results: the payload body of a RecCell record
// in binary result stores (campaign.DiskStore, binary codec). The layout must
// round-trip Result exactly — the binary store's differential tests
// compare figure JSON rendered from converted stores byte for byte.
// AVFACE, when set, follows the detail records as 8 more bytes, so a
// result without it encodes as it did before the field existed, and a
// build that predates the field refuses a record with it as trailing
// bytes instead of misreading it.

// EncodeResult appends res to w in wire layout.
func EncodeResult(w *wire.Writer, res *Result) {
	for _, n := range res.Outcomes {
		w.Int(n)
	}
	w.Int(res.Injections)
	w.I64(res.GoldenStats.Cycles)
	w.I64(res.GoldenStats.Instructions)
	w.I64(res.GoldenStats.LaneInstructions)
	w.Int(res.GoldenStats.Launches)
	w.F64(res.GoldenStats.RegOcc.AllocUnitCycles)
	w.F64(res.GoldenStats.LocalOcc.AllocUnitCycles)
	w.F64(res.Occupancy)
	w.U32(uint32(len(res.Records)))
	for _, rec := range res.Records {
		w.Int(int(rec.Fault.Structure))
		w.Int(rec.Fault.Unit)
		w.Int(rec.Fault.Entry)
		w.U64(uint64(rec.Fault.Bit))
		w.U64(uint64(rec.Fault.Width))
		w.I64(rec.Fault.Cycle)
		w.U8(uint8(rec.Outcome))
		w.Int(rec.CorruptBytes)
	}
	if res.AVFACE != nil {
		w.F64(*res.AVFACE)
	}
}

// recordWireSize is the encoded size of one detail Record, used to bound
// decode-time allocation by the input size.
const recordWireSize = 8*6 + 1 + 8

// DecodeResult decodes a Result encoded by EncodeResult, consuming the
// reader exactly: after the detail records, 0 bytes or an 8-byte AVFACE.
func DecodeResult(r *wire.Reader) (*Result, error) {
	res := &Result{}
	for i := range res.Outcomes {
		res.Outcomes[i] = r.Int()
	}
	res.Injections = r.Int()
	res.GoldenStats.Cycles = r.I64()
	res.GoldenStats.Instructions = r.I64()
	res.GoldenStats.LaneInstructions = r.I64()
	res.GoldenStats.Launches = r.Int()
	res.GoldenStats.RegOcc.AllocUnitCycles = r.F64()
	res.GoldenStats.LocalOcc.AllocUnitCycles = r.F64()
	res.Occupancy = r.F64()
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("finject: result record: %w", err)
	}
	if n > 0 {
		if n > r.Remaining()/recordWireSize {
			return nil, fmt.Errorf("finject: result record: %w: implausible detail count %d", wire.ErrCorrupt, n)
		}
		res.Records = make([]Record, n)
		for i := range res.Records {
			res.Records[i] = Record{
				Fault: gpu.Fault{
					Structure: gpu.Structure(r.Int()),
					Unit:      r.Int(),
					Entry:     r.Int(),
					Bit:       uint(r.U64()),
					Width:     uint(r.U64()),
					Cycle:     r.I64(),
				},
				Outcome:      gpu.Outcome(r.U8()),
				CorruptBytes: r.Int(),
			}
		}
	}
	if r.Remaining() == 8 {
		avf := r.F64()
		res.AVFACE = &avf
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("finject: result record: %w", err)
	}
	return res, nil
}
