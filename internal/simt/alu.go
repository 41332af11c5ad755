package simt

import "math"

// ALUOp is one lane operation: the integer, float and select semantics
// both ISAs compute, stated once, in ALUs. A vendor reaches it through
// one opcode table (aluOf in nvsim and in amdsim), resolved once per
// instruction, and computes a vector instruction's lanes in one ALUs
// call; ALU is the one-lane case of ALUs. The zero value is the table's
// entry for an opcode without lane semantics. Integers are 32-bit two's-
// complement words, floats IEEE-754 binary32 words.
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

// ALU computes one lane of op, the one-lane case of ALUs; the operands
// op does not name are ignored.
func ALU(op ALUOp, a, b, c uint32) uint32 {
	x, y, z := [1]uint32{a}, [1]uint32{b}, [1]uint32{c}
	ALUs(op, x[:], y[:], z[:])
	return x[0]
}

// ALUs computes op on every lane: a[i] = op(a[i], b[i], c[i]) for each i
// of a, whose length b and c must reach. The op is decided once, and
// each case is one loop over the lanes; ALUNone or an unknown op yields
// zeros.
func ALUs(op ALUOp, a, b, c []uint32) {
	b, c = b[:len(a)], c[:len(a)]
	switch op {
	case ALUMov: // a holds the result already
	case ALUAdd:
		for i := range a {
			a[i] += b[i]
		}
	case ALUSub:
		for i := range a {
			a[i] -= b[i]
		}
	case ALUMul:
		for i := range a {
			a[i] *= b[i]
		}
	case ALUMad:
		for i := range a {
			a[i] = a[i]*b[i] + c[i]
		}
	case ALUMin:
		for i := range a {
			if int32(b[i]) <= int32(a[i]) {
				a[i] = b[i]
			}
		}
	case ALUMax:
		for i := range a {
			if int32(b[i]) >= int32(a[i]) {
				a[i] = b[i]
			}
		}
	case ALUAnd:
		for i := range a {
			a[i] &= b[i]
		}
	case ALUOr:
		for i := range a {
			a[i] |= b[i]
		}
	case ALUXor:
		for i := range a {
			a[i] ^= b[i]
		}
	case ALUShl:
		for i := range a {
			a[i] <<= b[i] & 31
		}
	case ALUShr:
		for i := range a {
			a[i] >>= b[i] & 31
		}
	case ALUFAdd:
		for i := range a {
			a[i] = math.Float32bits(f32(a[i]) + f32(b[i]))
		}
	case ALUFSub:
		for i := range a {
			a[i] = math.Float32bits(f32(a[i]) - f32(b[i]))
		}
	case ALUFMul:
		for i := range a {
			a[i] = math.Float32bits(f32(a[i]) * f32(b[i]))
		}
	case ALUFFma:
		for i := range a {
			a[i] = math.Float32bits(float32(math.FMA(float64(f32(a[i])), float64(f32(b[i])), float64(f32(c[i])))))
		}
	case ALUFMin:
		for i := range a {
			if fa, fb := f32(a[i]), f32(b[i]); fa != fa || fb == fb && !(fa < fb) {
				a[i] = b[i]
			}
		}
	case ALUFMax:
		for i := range a {
			if fa, fb := f32(a[i]), f32(b[i]); fa != fa || fb == fb && !(fa > fb) {
				a[i] = b[i]
			}
		}
	case ALURcp:
		for i := range a {
			a[i] = math.Float32bits(1 / f32(a[i]))
		}
	case ALUExp2:
		for i := range a {
			a[i] = math.Float32bits(float32(math.Exp2(float64(f32(a[i])))))
		}
	case ALULog2:
		for i := range a {
			a[i] = math.Float32bits(float32(math.Log2(float64(f32(a[i])))))
		}
	case ALUSqrt:
		for i := range a {
			a[i] = math.Float32bits(float32(math.Sqrt(float64(f32(a[i])))))
		}
	case ALUI2F:
		for i := range a {
			a[i] = math.Float32bits(float32(int32(a[i])))
		}
	case ALUF2I:
		for i := range a {
			a[i] = uint32(f2i(f32(a[i])))
		}
	case ALUSel:
		for i := range a {
			if c[i] == 0 {
				a[i] = b[i]
			}
		}
	default:
		clear(a)
	}
}

// f32 reads a word as a float.
func f32(w uint32) float32 { return math.Float32frombits(w) }

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
