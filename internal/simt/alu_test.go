package simt_test

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand/v2"
	"testing"

	"repro/internal/simt"
)

// aluGrid is the operand edge grid of the lane-semantics pins
// (TestLaneSemanticsPinned in nvsim and amdsim): 0, 1, -1, the int32
// extremes, the shift amounts around the 5-bit mask, ±1.0f, ±Inf, a
// quiet NaN and a denormal.
var aluGrid = []uint32{
	0, 1, 0xFFFFFFFF, 0x7FFFFFFF, 0x80000000, 31, 32, 33,
	0x3F800000, 0xBF800000, 0x7F800000, 0xFF800000, 0x7FC00000, 0x00400000,
}

// aluPins is the FNV-64a digest of ALU's results, as little-endian
// words, over every triple of aluGrid in 64-lane vectors (the last one
// wrapping to the first triples): a change to one op's semantics, or two
// ops trading places, fails here before any simulator runs.
var aluPins = map[simt.ALUOp]uint64{
	simt.ALUMov:  0x11406b025d307d9a,
	simt.ALUAdd:  0xd5b0dfdfcf5c74d6,
	simt.ALUSub:  0xf3050b9420433e06,
	simt.ALUMul:  0x9b028725f9930da5,
	simt.ALUMad:  0xa4d9a7cbfd66b587,
	simt.ALUMin:  0x5d47422d131550bd,
	simt.ALUMax:  0x180f45980f5b258a,
	simt.ALUAnd:  0xe0ef2fd532a40791,
	simt.ALUOr:   0x2dea7816ef29e18e,
	simt.ALUXor:  0x1f5a1fe0d35c451a,
	simt.ALUShl:  0x67c7fb543fea71d6,
	simt.ALUShr:  0xe30962ae67a35676,
	simt.ALUFAdd: 0x0ebcb075fd97646e,
	simt.ALUFSub: 0x88318604c985bdf2,
	simt.ALUFMul: 0x99e69e61ab20789d,
	simt.ALUFFma: 0x3e71e1a92490e427,
	simt.ALUFMin: 0xb0d9a2d1cceaed71,
	simt.ALUFMax: 0x5e770cd46146c996,
	simt.ALURcp:  0xd06f66774c0d6a4d,
	simt.ALUExp2: 0x279b6483f5325d4d,
	simt.ALULog2: 0xf8e39f3d486b450a,
	simt.ALUSqrt: 0xfc7c71ab0094dcb4,
	simt.ALUI2F:  0xd769dbf9e1a0f826,
	simt.ALUF2I:  0xed3213c360f2a545,
	simt.ALUSel:  0xfae2058721adf8d9,
}

// TestALUsIsALUPerLane: for every op, ALUNone and one past the last op
// included, one ALUs call over 64-lane vectors of edge-grid triples
// leaves on each lane what ALU computes from that lane's operands, and
// leaves b and c as they were. Permuting the lanes of the inputs
// permutes the outputs, so no lane reads another's operands. An op
// without lane semantics yields zeros.
func TestALUsIsALUPerLane(t *testing.T) {
	n := len(aluGrid)
	triples := n * n * n
	perm := rand.New(rand.NewPCG(1, 2)).Perm(64)
	for op := simt.ALUNone; op <= simt.ALUSel+1; op++ {
		h := fnv.New64a()
		for lo := 0; lo < triples; lo += 64 {
			var a, b, c, want [64]uint32
			for l := range a {
				k := (lo + l) % triples
				a[l], b[l], c[l] = aluGrid[k%n], aluGrid[k/n%n], aluGrid[k/n/n]
				want[l] = simt.ALU(op, a[l], b[l], c[l])
			}
			got, gb, gc := a, b, c
			simt.ALUs(op, got[:], gb[:], gc[:])
			if got != want || gb != b || gc != c {
				t.Fatalf("op %d, triples from %d: ALUs is not ALU on every lane, or it wrote b or c", op, lo)
			}
			var pa, pb, pc [64]uint32
			for l, p := range perm {
				pa[l], pb[l], pc[l] = a[p], b[p], c[p]
			}
			simt.ALUs(op, pa[:], pb[:], pc[:])
			for l, p := range perm {
				if pa[l] != want[p] {
					t.Fatalf("op %d, triples from %d: lane %d holds %#x after permuting, lane %d computed %#x", op, lo, l, pa[l], p, want[p])
				}
			}
			if _, known := aluPins[op]; !known && want != [64]uint32{} {
				t.Fatalf("op %d has no lane semantics but computes %#x", op, want)
			}
			var buf []byte
			for _, w := range want {
				buf = binary.LittleEndian.AppendUint32(buf, w)
			}
			h.Write(buf)
		}
		if pin, known := aluPins[op]; known && h.Sum64() != pin {
			t.Errorf("op %d: results digest %#x, pinned %#x", op, h.Sum64(), pin)
		}
	}
}
