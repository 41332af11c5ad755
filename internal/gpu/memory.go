package gpu

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Memory models device global memory as a flat little-endian byte array
// with a bump allocator. All accesses are bounds-checked; a failed check
// aborts the launch and is classified as a DUE by the fault-injection
// engine, mirroring how GPGPU-Sim/Multi2Sim abort on wild accesses.
//
// Snapshots are copy-on-write at page granularity (see Pages): Image
// shares clean pages with the capturing image instead of copying them,
// and SetImage skips pages whose identity already matches the image
// being restored — so a restore to a nearby ladder rung touches only the
// pages the run actually dirtied.
type Memory struct {
	pg  Pages[byte]
	brk uint32 // bump-allocation watermark
	hwm uint32 // high-water mark since last Reset (for cheap zeroing)

	// Replay mode (between Snapshot restore and fast-forward resume):
	// the host program re-executes allocations and uploads whose effects
	// the restored image already contains, so Alloc hands out addresses
	// from a shadow watermark without touching state and stores become
	// bounds-checked no-ops. Loads still read the restored image.
	replay bool
	rbrk   uint32
}

// memAlign is the allocation alignment in bytes.
const memAlign = 256

// NewMemory creates a device memory of the given size in bytes.
func NewMemory(size int) *Memory { return &Memory{pg: NewPages(size, new(PageArena[byte]))} }

// Alloc reserves size bytes and returns the device address. Address 0 is
// never returned (the first allocation starts at memAlign) so that 0 can
// serve as a null pointer.
func (m *Memory) Alloc(size int) (uint32, error) {
	if size < 0 {
		return 0, fmt.Errorf("gpu: negative allocation size %d", size)
	}
	if m.replay {
		// Shadow allocation: the sequence of sizes is deterministic, so
		// replaying it from zero yields the addresses of the original
		// run without disturbing the restored allocator state.
		if m.rbrk == 0 {
			m.rbrk = memAlign
		}
		addr := m.rbrk
		sz := (uint32(size) + memAlign - 1) &^ (memAlign - 1)
		if uint64(addr)+uint64(sz) > uint64(len(m.pg.data)) {
			return 0, fmt.Errorf("gpu: out of device memory (want %d bytes at %#x, capacity %d)", size, addr, len(m.pg.data))
		}
		m.rbrk = addr + sz
		return addr, nil
	}
	if m.brk == 0 {
		m.brk = memAlign
	}
	addr := m.brk
	sz := (uint32(size) + memAlign - 1) &^ (memAlign - 1)
	if uint64(addr)+uint64(sz) > uint64(len(m.pg.data)) {
		return 0, fmt.Errorf("gpu: out of device memory (want %d bytes at %#x, capacity %d)", size, addr, len(m.pg.data))
	}
	m.brk = addr + sz
	if m.brk > m.hwm {
		m.hwm = m.brk
	}
	return addr, nil
}

// MemImage is a compact, immutable copy of a Memory's state: the pages
// covering the high-water-mark prefix plus the allocator watermarks.
// Pages are shared structurally with the Memory they were captured from
// and with neighbouring images (copy-on-write), so consecutive ladder
// rungs pay only for the pages that changed between them. Everything
// beyond the prefix is zero by construction (snapshots are only taken of
// runs that started from power-on state).
type MemImage struct {
	pages [][]byte
	brk   uint32
	hwm   uint32
	owned int // pages copied fresh at capture (not shared with an older image)
}

// SizeBytes returns the image's unique storage footprint: pages copied
// at capture count, pages shared with an earlier image or the canonical
// zero page are free.
func (img *MemImage) SizeBytes() int64 { return int64(img.owned) * pageSize }

// Image captures the memory state for later SetImage restoration. Clean
// pages (unwritten since the last capture or restore) are shared with
// the image that already holds them; dirty pages are copied into arena
// storage and become the new identity of the live page.
func (m *Memory) Image() *MemImage {
	img := &MemImage{brk: m.brk, hwm: m.hwm}
	img.pages, img.owned = m.pg.Capture(m.pg.PagesFor(int(m.hwm)))
	return img
}

// SetImage restores a previously captured image, clearing any bytes the
// current state touched beyond the image's extent, and enters replay
// mode (see Alloc); the fast-forward resume path leaves replay mode via
// EndReplay once the host program reaches live execution. Pages whose
// identity already matches the image are skipped, so restoring to a
// nearby rung costs only the pages that differ.
func (m *Memory) SetImage(img *MemImage) error {
	if int(img.hwm) > len(m.pg.data) {
		return fmt.Errorf("gpu: memory image extent %d exceeds capacity %d", img.hwm, len(m.pg.data))
	}
	m.pg.Restore(img.pages)
	// Pages the current state touched beyond the image's extent go back
	// to zero (image pages contain zeros past img.hwm by construction,
	// so only whole pages above the image's last page need clearing).
	m.pg.Zero(len(img.pages), m.pg.PagesFor(int(m.hwm)))
	m.brk = img.brk
	m.hwm = img.hwm
	m.replay = true
	m.rbrk = 0
	return nil
}

// RestorePageStats returns the cumulative number of pages SetImage
// copied versus skipped via identity match since construction. The
// fault-injection engine reads deltas around each restore for cost
// accounting.
func (m *Memory) RestorePageStats() (copied, shared int64) { return m.pg.RestoreStats() }

// EndReplay leaves replay mode: subsequent allocations and stores apply
// to the restored state for real.
func (m *Memory) EndReplay() {
	m.replay = false
	m.rbrk = 0
}

// Reset zeroes all memory touched since construction and rewinds the
// allocator. Only dirty pages under the high-water mark are cleared,
// which keeps per-injection reset cost proportional to the pages the
// workload actually wrote.
func (m *Memory) Reset() {
	m.pg.Zero(0, m.pg.PagesFor(int(m.hwm)))
	m.brk = 0
	m.hwm = 0
	m.replay = false
	m.rbrk = 0
}

// check validates an access of size bytes at addr.
func (m *Memory) check(addr uint32, size int) error {
	if uint64(addr)+uint64(size) > uint64(len(m.pg.data)) {
		return fmt.Errorf("gpu: invalid memory access addr=%#x size=%d capacity=%d", addr, size, len(m.pg.data))
	}
	return nil
}

// Load32 reads a 32-bit word.
func (m *Memory) Load32(addr uint32) (uint32, error) {
	if err := m.check(addr, 4); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(m.pg.data[addr:]), nil
}

// Store32 writes a 32-bit word. Stores beyond the allocator watermark
// (reachable via fault-corrupted addresses that stay in capacity) raise
// the high-water mark, so Reset's cheap zeroing and snapshot images
// always cover every byte ever written.
func (m *Memory) Store32(addr uint32, v uint32) error {
	if err := m.check(addr, 4); err != nil {
		return err
	}
	if m.replay {
		return nil
	}
	m.pg.Dirty(int(addr), 4)
	binary.LittleEndian.PutUint32(m.pg.data[addr:], v)
	if end := addr + 4; end > m.hwm {
		m.hwm = end
	}
	return nil
}

// WriteWords uploads a slice of 32-bit words starting at addr.
func (m *Memory) WriteWords(addr uint32, words []uint32) error {
	if err := m.check(addr, 4*len(words)); err != nil {
		return err
	}
	if m.replay {
		return nil
	}
	if len(words) == 0 {
		return nil
	}
	m.pg.Dirty(int(addr), 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(m.pg.data[addr+uint32(4*i):], w)
	}
	if end := addr + uint32(4*len(words)); end > m.hwm {
		m.hwm = end
	}
	return nil
}

// ReadWords downloads n 32-bit words starting at addr.
func (m *Memory) ReadWords(addr uint32, n int) ([]uint32, error) {
	if err := m.check(addr, 4*n); err != nil {
		return nil, err
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(m.pg.data[addr+uint32(4*i):])
	}
	return out, nil
}

// WriteFloats uploads a float32 slice starting at addr.
func (m *Memory) WriteFloats(addr uint32, vals []float32) error {
	if err := m.check(addr, 4*len(vals)); err != nil {
		return err
	}
	if m.replay {
		return nil
	}
	if len(vals) == 0 {
		return nil
	}
	m.pg.Dirty(int(addr), 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(m.pg.data[addr+uint32(4*i):], math.Float32bits(v))
	}
	if end := addr + uint32(4*len(vals)); end > m.hwm {
		m.hwm = end
	}
	return nil
}

// ReadBytes returns a copy of the byte range [addr, addr+size).
func (m *Memory) ReadBytes(addr uint32, size int) ([]byte, error) {
	if err := m.check(addr, size); err != nil {
		return nil, err
	}
	out := make([]byte, size)
	copy(out, m.pg.data[addr:])
	return out, nil
}

// AllocWords allocates space for and uploads the given words, returning
// the device address.
func (m *Memory) AllocWords(words []uint32) (uint32, error) {
	addr, err := m.Alloc(4 * len(words))
	if err != nil {
		return 0, err
	}
	return addr, m.WriteWords(addr, words)
}

// AllocFloats allocates space for and uploads the given floats, returning
// the device address.
func (m *Memory) AllocFloats(vals []float32) (uint32, error) {
	addr, err := m.Alloc(4 * len(vals))
	if err != nil {
		return 0, err
	}
	return addr, m.WriteFloats(addr, vals)
}
