package gpu

import "testing"

// BenchmarkMemoryStore32 is the one per-lane path through Pages: a
// global store drops its page's identity before it writes.
func BenchmarkMemoryStore32(b *testing.B) {
	m := NewMemory(1 << 20)
	if _, err := m.Alloc(1 << 19); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Store32(uint32(i*4)&(1<<19-1)+memAlign, uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
}
