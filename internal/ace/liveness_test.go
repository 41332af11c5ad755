package ace

import (
	"cmp"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"repro/internal/chips"
	"repro/internal/devices"
	"repro/internal/gpu"
	"repro/internal/workloads"
)

// expansion is the retained form before rows were kept: every entry with
// a live span, ascending, with all of its spans, its rows' copied to it.
type expansion struct {
	perUnit    int
	keys, offs []uint32
	spans      []span
}

// expand compacts the recording as the table did before it kept rows,
// writing a row's span to every member; it is the oracle the retained
// form is held to. The entries' counts of closed spans take their rows'
// first, and are restored.
func (t *track) expand() *expansion {
	if t.bad {
		return nil
	}
	forRows := func(add func(ch *chain, closed uint32)) {
		for o := 1; o < len(t.rows); o++ {
			r := &t.rows[o]
			for m := r.mask; r.closed != 0 && m != 0; m &= m - 1 {
				k := r.key + uint32(bits.TrailingZeros64(m))
				add(&t.chains[k>>pageBits][k&pageMask], r.closed)
			}
		}
	}
	forRows(func(ch *chain, closed uint32) { ch.closed += closed })
	ex := &expansion{perUnit: t.perUnit}
	n := uint32(0)
	for pi, p := range t.pages {
		if p == nil {
			continue
		}
		for i := range t.chains[pi] {
			ch := &t.chains[pi][i]
			closed, f := ch.closed, p.flags[i]
			if o := p.owner[i]; o != 0 {
				f = t.rows[o].flags
			}
			if closed == 0 && f&open == 0 {
				continue
			}
			ex.keys = append(ex.keys, uint32(pi<<pageBits|i))
			ex.offs = append(ex.offs, n)
			n += closed
			if f&open != 0 {
				n++
			}
			ch.closed = ex.offs[len(ex.offs)-1]
		}
	}
	ex.offs = append(ex.offs, n)
	ex.spans = make([]span, n)
	for j := range t.n {
		l := &t.log[j>>chunkBits][j&chunkMask]
		if l.key&rowTag == 0 {
			ch := &t.chains[l.key>>pageBits][l.key&pageMask]
			ex.spans[ch.closed] = l.span
			ch.closed++
			continue
		}
		r := &t.rows[l.key&^rowTag]
		for m := r.mask; m != 0; m &= m - 1 {
			k := r.key + uint32(bits.TrailingZeros64(m))
			ch := &t.chains[k>>pageBits][k&pageMask]
			ex.spans[ch.closed] = l.span
			ch.closed++
		}
	}
	for k, key := range ex.keys {
		p, i := t.pages[key>>pageBits], key&pageMask
		ch := &t.chains[key>>pageBits][i]
		next, f, lo := p.next[i], p.flags[i], ch.lo
		if o := p.owner[i]; o != 0 {
			r := &t.rows[o]
			next, f, lo = r.next, r.flags, r.lo
		}
		if f&open != 0 {
			ex.spans[ch.closed] = span{lo, next - 1}
		}
		ch.closed -= ex.offs[k]
	}
	forRows(func(ch *chain, closed uint32) { ch.closed -= closed })
	return ex
}

// dead is Liveness.Dead over the expansion, for a fault inside the
// structure and the stamp width.
func (ex *expansion) dead(unit, entry int, cycle uint32) bool {
	i, ok := slices.BinarySearch(ex.keys, uint32(unit*ex.perUnit+entry))
	if !ok {
		return true
	}
	sp := ex.spans[ex.offs[i]:ex.offs[i+1]]
	j := sort.Search(len(sp), func(j int) bool { return sp[j].hi >= cycle })
	return j == len(sp) || sp[j].lo > cycle
}

// bytes is what the expansion retains.
func (ex *expansion) bytes() int {
	return 4*len(ex.keys) + 4*len(ex.offs) + 8*len(ex.spans)
}

// perEntry gathers every entry's spans from the retained form, its own
// and those of every row whose member set holds it, by walking the member
// sets rather than by the order and reach Dead trusts; each list
// ascending.
func (lt *Table) perEntry() map[uint32][]span {
	out := map[uint32][]span{}
	for i, key := range lt.keys {
		out[key] = append(out[key], lt.spans[lt.offs[i]:lt.offs[i+1]]...)
	}
	for j, first := range lt.rowAt {
		n := len(lt.keys) + j
		for m := lt.rowMask[j]; m != 0; m &= m - 1 {
			key := first + uint32(bits.TrailingZeros64(m))
			out[key] = append(out[key], lt.spans[lt.offs[n]:lt.offs[n+1]]...)
		}
	}
	for _, sp := range out {
		slices.SortFunc(sp, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	}
	return out
}

// tracePair runs a benchmark on a new device of the chip under a recorder.
func tracePair(tb testing.TB, chip *chips.Chip, bench *workloads.Benchmark) (*Recorder, gpu.RunStats) {
	tb.Helper()
	d, err := devices.New(chip)
	if err != nil {
		tb.Fatal(err)
	}
	hp, err := bench.New(chip.Vendor)
	if err != nil {
		tb.Fatal(err)
	}
	r := NewRecorder(d)
	d.SetTracer(r)
	if err := hp.Run(d); err != nil {
		tb.Fatal(err)
	}
	return r, d.Stats()
}

// largestPairs are the full-size (chip, benchmark) pairs of the paper's
// grid whose tables are the largest per-member expansions
// (TestLivenessTablesStaySmall logs them all): the three NVIDIA
// matrixMul pairs, 2,228,232 bytes each, and the largest AMD one.
var largestPairs = []struct{ chip, bench string }{
	{"GeForce GTX 480", "matrixMul"},
	{"Quadro FX 5600", "matrixMul"},
	{"Quadro FX 5800", "matrixMul"},
	{"HD Radeon 7970", "matrixMul"},
}

// TestRetainedMatchesExpansion holds the retained form to the per-member
// expansion on the ten benchmarks on both mini chips and on the
// full-size pairs with the largest tables: Dead agrees at every span end
// of the expansion, the cycles beside it, the entries beside it, and at
// uniform probes over the structure and the run.
func TestRetainedMatchesExpansion(t *testing.T) {
	type pair struct {
		chip  *chips.Chip
		bench *workloads.Benchmark
	}
	var pairs []pair
	for _, chip := range []*chips.Chip{chips.MiniNVIDIA(), chips.MiniAMD()} {
		for _, b := range workloads.All() {
			pairs = append(pairs, pair{chip, b})
		}
	}
	if !testing.Short() {
		for _, p := range largestPairs {
			chip, err := chips.ByName(p.chip)
			if err != nil {
				t.Fatal(err)
			}
			b, err := workloads.ByName(p.bench)
			if err != nil {
				t.Fatal(err)
			}
			pairs = append(pairs, pair{chip, b})
		}
	}
	const uniform = 50_000
	rng := rand.New(rand.NewPCG(47, 1))
	for _, p := range pairs {
		r, st := tracePair(t, p.chip, p.bench)
		m := r.Liveness()
		probes := 0
		for s := range m {
			st_ := gpu.Structure(s)
			lt, ex := m[s], r[s].expand()
			check := func(unit, entry int, cycle int64) {
				if unit < 0 || unit >= lt.units || entry < 0 || entry >= lt.perUnit || cycle < 0 {
					return
				}
				probes++
				f := gpu.Fault{Structure: st_, Unit: unit, Entry: entry, Cycle: cycle}
				if got, want := m.Dead(f), ex.dead(unit, entry, uint32(cycle)); got != want {
					t.Fatalf("%s %s %v unit %d entry %d cycle %d: retained dead=%v, expansion %v", p.chip.Name, p.bench.Name, st_, unit, entry, cycle, got, want)
				}
			}
			for i, key := range ex.keys {
				unit, entry := int(key)/lt.perUnit, int(key)%lt.perUnit
				for _, sp := range ex.spans[ex.offs[i]:ex.offs[i+1]] {
					for _, c := range []int64{int64(sp.lo) - 1, int64(sp.lo), int64(sp.lo) + 1, int64(sp.hi) - 1, int64(sp.hi), int64(sp.hi) + 1} {
						check(unit, entry, c)
					}
					check(unit, entry-1, int64(sp.lo))
					check(unit, entry+1, int64(sp.hi))
				}
			}
			for range uniform {
				check(rng.IntN(lt.units), rng.IntN(lt.perUnit), rng.Int64N(st.Cycles+2))
			}
		}
		t.Logf("%-16s %-10s %9d probes agree", p.chip.Name, p.bench.Name, probes)
	}
}

// BenchmarkLiveness builds the tables of a full-size pair with the
// largest ones from its recording, and answers a fixed batch of Dead
// probes from them: half in or beside a span, half uniform over the
// structure and the run.
func BenchmarkLiveness(b *testing.B) {
	chip, err := chips.ByName(largestPairs[0].chip)
	if err != nil {
		b.Fatal(err)
	}
	bench, err := workloads.ByName(largestPairs[0].bench)
	if err != nil {
		b.Fatal(err)
	}
	r, st := tracePair(b, chip, bench)
	const batch = 1 << 16
	var probes []gpu.Fault
	rng := rand.New(rand.NewPCG(47, 2))
	for s := range r {
		ex := r[s].expand()
		for len(probes) < (s+1)*batch/2 {
			i := rng.IntN(len(ex.keys))
			sp := ex.spans[ex.offs[i]+uint32(rng.IntN(int(ex.offs[i+1]-ex.offs[i])))]
			at := int64(sp.lo) - 1 + rng.Int64N(int64(sp.hi-sp.lo)+3)
			key := int(ex.keys[i])
			probes = append(probes, gpu.Fault{Structure: gpu.Structure(s), Unit: key / r[s].perUnit, Entry: key % r[s].perUnit, Cycle: max(at, 0)},
				gpu.Fault{Structure: gpu.Structure(s), Unit: rng.IntN(r[s].units), Entry: rng.IntN(r[s].perUnit), Cycle: rng.Int64N(st.Cycles + 1)})
		}
	}
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Liveness()
		}
	})
	m := r.Liveness()
	b.Run("dead", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, f := range probes {
				m.Dead(f)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(probes)), "ns/probe")
	})
}
