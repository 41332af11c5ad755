package gpu

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMemoryAllocAlignmentAndNull(t *testing.T) {
	m := NewMemory(1 << 16)
	a, err := m.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	if a == 0 {
		t.Fatal("allocator returned the null address")
	}
	if a%256 != 0 {
		t.Fatalf("allocation %#x not 256-byte aligned", a)
	}
	b, err := m.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	if b <= a {
		t.Fatalf("allocations overlap: %#x then %#x", a, b)
	}
}

func TestMemoryExhaustion(t *testing.T) {
	m := NewMemory(1 << 12)
	if _, err := m.Alloc(1 << 13); err == nil {
		t.Fatal("oversized allocation accepted")
	}
	if _, err := m.Alloc(-1); err == nil {
		t.Fatal("negative allocation accepted")
	}
}

func TestMemoryBoundsChecks(t *testing.T) {
	m := NewMemory(64)
	if _, err := m.Load32(64); err == nil {
		t.Fatal("out-of-bounds load accepted")
	}
	if err := m.Store32(61, 1); err == nil {
		t.Fatal("straddling store accepted")
	}
	if _, err := m.ReadWords(0, 17); err == nil {
		t.Fatal("oversized read accepted")
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	m := NewMemory(1 << 12)
	addr, err := m.AllocFloats([]float32{1.5, -2.25, float32(math.Inf(1))})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := m.ReadWords(addr, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float32, len(ws))
	for i, w := range ws {
		got[i] = math.Float32frombits(w)
	}
	if got[0] != 1.5 || got[1] != -2.25 || !math.IsInf(float64(got[2]), 1) {
		t.Fatalf("round trip %v", got)
	}
}

func TestMemoryResetZeroesAndRewinds(t *testing.T) {
	m := NewMemory(1 << 12)
	a, _ := m.AllocWords([]uint32{0xdeadbeef})
	m.Reset()
	b, err := m.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("allocator did not rewind: %#x vs %#x", a, b)
	}
	v, err := m.Load32(a)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("stale data %#x after reset", v)
	}
}

func TestMemoryWordsProperty(t *testing.T) {
	m := NewMemory(1 << 16)
	if err := quick.Check(func(words []uint32) bool {
		if len(words) == 0 || len(words) > 1000 {
			return true
		}
		m.Reset()
		addr, err := m.AllocWords(words)
		if err != nil {
			return false
		}
		got, err := m.ReadWords(addr, len(words))
		if err != nil {
			return false
		}
		for i := range words {
			if got[i] != words[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDim3(t *testing.T) {
	if D1(5).Count() != 5 || D2(3, 4).Count() != 12 {
		t.Fatal("counts wrong")
	}
	if (Dim3{X: 0, Y: 0, Z: 0}).Count() != 1 {
		t.Fatal("zero dims must clamp to 1")
	}
	if D2(2, 3).String() != "(2,3,1)" {
		t.Fatalf("string %s", D2(2, 3))
	}
}

func TestOutcomeTaxonomy(t *testing.T) {
	for i, name := range []string{"masked", "sdc", "due", "timeout"} {
		var o Outcome
		if err := o.UnmarshalText([]byte(name)); err != nil || o != Outcome(i) || o.String() != name {
			t.Fatalf("outcome %d: %q parses to %v (%v)", i, name, o, err)
		}
	}
	if NumOutcomes != 4 {
		t.Fatalf("NumOutcomes = %d", NumOutcomes)
	}
}

func TestEntryBits(t *testing.T) {
	if EntryBits(RegisterFile) != 32 || EntryBits(LocalMemory) != 8 {
		t.Fatal("entry bit widths wrong")
	}
}

func TestOccupancyAccounting(t *testing.T) {
	st := RunStats{Cycles: 100}
	st.RegOcc.AllocUnitCycles = 50 * 100 // 50 entries allocated the whole time
	if got := st.Occupancy(RegisterFile, 200); got != 0.25 {
		t.Fatalf("occupancy %v, want 0.25", got)
	}
	if got := st.Occupancy(LocalMemory, 200); got != 0 {
		t.Fatalf("untouched structure occupancy %v", got)
	}
	empty := RunStats{}
	if empty.Occupancy(RegisterFile, 100) != 0 {
		t.Fatal("zero-cycle stats must report zero occupancy")
	}
}

func TestFaultString(t *testing.T) {
	f := Fault{Structure: LocalMemory, Unit: 3, Entry: 17, Bit: 5, Cycle: 99}
	if f.String() != "local-memory unit=3 entry=17 bit=5 width=1 cycle=99" {
		t.Fatalf("got %q", f.String())
	}
}

func TestFaultMask(t *testing.T) {
	cases := []struct {
		bit, width uint
		entryBits  int
		want       uint32
	}{
		{5, 0, 32, 1 << 5},      // width 0 means single bit
		{5, 1, 32, 1 << 5},      // explicit single bit
		{5, 2, 32, 3 << 5},      // adjacent double bit
		{30, 4, 32, 0xC0000000}, // truncated at the top bit
		{6, 3, 8, 0xC0},         // byte entry, truncated
		{9, 1, 8, 1 << 1},       // bit wraps into the entry width
	}
	for _, c := range cases {
		f := Fault{Bit: c.bit, Width: c.width}
		if got := f.Mask(c.entryBits); got != c.want {
			t.Errorf("Mask(bit=%d,width=%d,entry=%d) = %#x, want %#x",
				c.bit, c.width, c.entryBits, got, c.want)
		}
	}
}

func TestStructureTextRoundTrip(t *testing.T) {
	for _, st := range []Structure{RegisterFile, LocalMemory} {
		b, err := st.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Structure
		if err := back.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if back != st {
			t.Fatalf("round trip %v -> %v", st, back)
		}
	}
	var s Structure
	if err := s.UnmarshalText([]byte("bogus")); err == nil {
		t.Fatal("bogus structure name accepted")
	}
}
