package simt

import "math"

// ALUOp is one lane operation: the integer, float and select semantics
// both ISAs compute, stated once. A vendor reaches it through one opcode
// table (aluOf in nvsim and in amdsim), resolved once per instruction;
// the zero value is that table's entry for an opcode without lane
// semantics. Integers are 32-bit two's-complement words, floats IEEE-754
// binary32 words.
type ALUOp uint8

// Lane operations over the operand words a, b and c.
const (
	ALUNone ALUOp = iota
	ALUMov        // a
	ALUAdd        // a + b
	ALUSub        // a - b
	ALUMul        // a * b, the low 32 bits
	ALUMad        // a*b + c, the low 32 bits
	ALUMin        // the signed minimum
	ALUMax        // the signed maximum
	ALUAnd        // a & b
	ALUOr         // a | b
	ALUXor        // a ^ b
	ALUShl        // a << (b mod 32)
	ALUShr        // a >> (b mod 32), logical
	ALUFAdd       // a + b
	ALUFSub       // a - b
	ALUFMul       // a * b
	ALUFFma       // a*b + c, fused in float64 (math.FMA), then rounded to float32
	ALUFMin       // the smaller float, b on a tie (±0); the non-NaN operand wins
	ALUFMax       // the larger float, b on a tie (±0); the non-NaN operand wins
	ALURcp        // 1 / a
	ALUExp2       // 2^a
	ALULog2       // log2 a
	ALUSqrt       // √a
	ALUI2F        // the signed integer a as a float
	ALUF2I        // the float a truncated to a signed integer, saturated, NaN → 0
	ALUSel        // c != 0 ? a : b
)

// ALU computes one lane of op; the operands op does not name are ignored.
func ALU(op ALUOp, a, b, c uint32) uint32 {
	fa, fb := math.Float32frombits(a), math.Float32frombits(b)
	switch op {
	case ALUMov:
		return a
	case ALUAdd:
		return a + b
	case ALUSub:
		return a - b
	case ALUMul:
		return a * b
	case ALUMad:
		return a*b + c
	case ALUMin:
		if int32(a) < int32(b) {
			return a
		}
		return b
	case ALUMax:
		if int32(a) > int32(b) {
			return a
		}
		return b
	case ALUAnd:
		return a & b
	case ALUOr:
		return a | b
	case ALUXor:
		return a ^ b
	case ALUShl:
		return a << (b & 31)
	case ALUShr:
		return a >> (b & 31)
	case ALUFAdd:
		return math.Float32bits(fa + fb)
	case ALUFSub:
		return math.Float32bits(fa - fb)
	case ALUFMul:
		return math.Float32bits(fa * fb)
	case ALUFFma:
		return math.Float32bits(float32(math.FMA(float64(fa), float64(fb), float64(math.Float32frombits(c)))))
	case ALUFMin:
		if fa != fa || fb == fb && !(fa < fb) {
			return b
		}
		return a
	case ALUFMax:
		if fa != fa || fb == fb && !(fa > fb) {
			return b
		}
		return a
	case ALURcp:
		return math.Float32bits(1 / fa)
	case ALUExp2:
		return math.Float32bits(float32(math.Exp2(float64(fa))))
	case ALULog2:
		return math.Float32bits(float32(math.Log2(float64(fa))))
	case ALUSqrt:
		return math.Float32bits(float32(math.Sqrt(float64(fa))))
	case ALUI2F:
		return math.Float32bits(float32(int32(a)))
	case ALUF2I:
		return uint32(f2i(fa))
	case ALUSel:
		if c != 0 {
			return a
		}
		return b
	}
	return 0
}

// f2i converts float32 to int32 with saturation (deterministic for NaN
// and out-of-range inputs, which fault-corrupted data can produce).
func f2i(f float32) int32 {
	if f != f {
		return 0
	}
	v := math.Trunc(float64(f))
	switch {
	case v > math.MaxInt32:
		return math.MaxInt32
	case v < math.MinInt32:
		return math.MinInt32
	default:
		return int32(v)
	}
}

// Cond is a comparison condition. siasm.Cond lists the same conditions
// in the same order.
type Cond int

// Comparison conditions.
const (
	CondEQ Cond = iota
	CondNE
	CondLT
	CondLE
	CondGT
	CondGE
)

// CmpType is how a comparison reads its operand words. siasm.CmpType
// lists the same types in the same order.
type CmpType int

// Comparison operand types.
const (
	CmpI32 CmpType = iota
	CmpU32
	CmpF32
)

// Compare applies the condition to two 32-bit words read as ty. A float
// comparison with a NaN operand is unordered: it holds for NE only.
func Compare(c Cond, ty CmpType, a, b uint32) bool {
	switch ty {
	case CmpF32:
		fa, fb := math.Float32frombits(a), math.Float32frombits(b)
		if fa != fa || fb != fb {
			return c == CondNE
		}
		return c.holds(fa < fb, fa == fb)
	case CmpU32:
		return c.holds(a < b, a == b)
	default:
		return c.holds(int32(a) < int32(b), a == b)
	}
}

// holds decides the condition from an ordered pair's less and equal.
func (c Cond) holds(lt, eq bool) bool {
	switch c {
	case CondEQ:
		return eq
	case CondNE:
		return !eq
	case CondLT:
		return lt
	case CondLE:
		return lt || eq
	case CondGT:
		return !lt && !eq
	default:
		return !lt
	}
}
