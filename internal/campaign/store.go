package campaign

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/finject"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Store is a campaign-result cache keyed by cell identity. Implementations
// must be safe for concurrent use. Results are shared by pointer: callers
// must treat results obtained from a store as immutable.
type Store interface {
	// Get returns the stored result for key, if any.
	Get(key CellKey) (*finject.Result, bool, error)
	// Put records the result for key, replacing any previous value.
	Put(key CellKey, res *finject.Result) error
	// Len reports the number of cells currently stored.
	Len() int
}

// MemoryStore is an in-memory LRU Store.
type MemoryStore struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	idx map[CellKey]*list.Element
}

type memEntry struct {
	key CellKey
	res *finject.Result
}

// NewMemoryStore builds an LRU store holding at most capacity cells;
// capacity <= 0 means unbounded.
func NewMemoryStore(capacity int) *MemoryStore {
	return &MemoryStore{
		cap: capacity,
		ll:  list.New(),
		idx: make(map[CellKey]*list.Element),
	}
}

// Get implements Store, refreshing the entry's recency.
func (m *MemoryStore) Get(key CellKey) (*finject.Result, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.idx[key]
	if !ok {
		return nil, false, nil
	}
	m.ll.MoveToFront(el)
	return el.Value.(*memEntry).res, true, nil
}

// Put implements Store, evicting the least recently used cell when over
// capacity.
func (m *MemoryStore) Put(key CellKey, res *finject.Result) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.idx[key]; ok {
		el.Value.(*memEntry).res = res
		m.ll.MoveToFront(el)
		return nil
	}
	m.idx[key] = m.ll.PushFront(&memEntry{key: key, res: res})
	if m.cap > 0 && m.ll.Len() > m.cap {
		last := m.ll.Back()
		m.ll.Remove(last)
		delete(m.idx, last.Value.(*memEntry).key)
	}
	return nil
}

// Len implements Store.
func (m *MemoryStore) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ll.Len()
}

// DiskStore is the persistent Store: an append-only wire.Journal of
// (key, result) records with the whole file indexed in memory on open.
// Later records for the same key shadow earlier ones, so overwrites are
// appends too — the file is only rewritten by Compact, which opening
// invokes automatically once the dead records pass CompactDeadThreshold.
// Crash recovery is the journal's torn-tail rule: each Put is one write
// of one whole record, so after a crash a record is either wholly
// present or a torn tail that the next open truncates away, while a
// whole record that does not decode is corruption and stays an error.
//
// The two on-disk formats differ only in their recordCodec: JSON lines,
// or length-prefixed CRC frames that open and append several times
// faster and take a fraction of the bytes. Binary files carry the wire
// magic, so OpenStore can route between the formats by sniffing.
type DiskStore struct {
	mu    sync.Mutex
	codec *recordCodec
	j     *wire.Journal
	idx   map[CellKey]*finject.Result
	// records counts the records physically in the file; records -
	// len(idx) are dead (shadowed by a later record for the same key).
	records int
	// lastLive and lastDead are what this store last published to the
	// fleet-wide fi_store_disk_records_live/_dead gauges: contributions
	// are deltas against the previous sync, so several open stores
	// aggregate additively and Close withdraws exactly its own share.
	lastLive, lastDead int
}

// recordCodec is everything that differs between the store formats: how
// records are framed in the journal and how one (key, result) pair maps
// to a record payload.
type recordCodec struct {
	format  string
	framing wire.Framing
	encode  func(key CellKey, res *finject.Result) ([]byte, error)
	decode  func(payload []byte) (CellKey, *finject.Result, error)
}

// replay adapts fn to the journal's replay callback: every record is
// decoded, and one that does not decode stops the replay as corruption.
func (c *recordCodec) replay(fn func(CellKey, *finject.Result)) func(wire.Record) error {
	return func(rec wire.Record) error {
		key, res, err := c.decode(rec.Payload)
		if err != nil {
			return fmt.Errorf("record at offset %d: %w", rec.Off, err)
		}
		fn(key, res)
		return nil
	}
}

// diskRecord is the JSON-lines row format.
type diskRecord struct {
	Key    CellKey         `json:"key"`
	Result *finject.Result `json:"result"`
}

var jsonCodec = &recordCodec{
	format:  FormatJSON,
	framing: wire.Lines,
	encode: func(key CellKey, res *finject.Result) ([]byte, error) {
		return json.Marshal(diskRecord{Key: key, Result: res})
	},
	decode: func(payload []byte) (CellKey, *finject.Result, error) {
		var rec diskRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return "", nil, err
		}
		if rec.Key == "" || rec.Result == nil {
			return "", nil, errors.New("incomplete record")
		}
		return rec.Key, rec.Result, nil
	},
}

var binaryCodec = &recordCodec{
	format:  FormatBinary,
	framing: wire.Frames(wire.FileStore, wire.RecCell),
	encode: func(key CellKey, res *finject.Result) ([]byte, error) {
		var w wire.Writer
		w.String(string(key))
		finject.EncodeResult(&w, res)
		return w.Bytes(), nil
	},
	decode: func(payload []byte) (CellKey, *finject.Result, error) {
		r := wire.NewReader(payload)
		key := CellKey(r.String())
		if err := r.Err(); err != nil {
			return "", nil, err
		}
		if key == "" {
			return "", nil, fmt.Errorf("%w: cell record with empty key", wire.ErrCorrupt)
		}
		res, err := finject.DecodeResult(r)
		if err != nil {
			return "", nil, err
		}
		return key, res, nil
	},
}

// CompactDeadThreshold is the number of dead (shadowed) records past
// which opening a store compacts the file before serving from it. Policy
// upgrades overwrite cells by appending, so a long-lived store otherwise
// grows without bound.
const CompactDeadThreshold = 64

// The store format names accepted by OpenStore and the -store-format
// flag.
const (
	FormatAuto   = "auto"
	FormatJSON   = "json"
	FormatBinary = "binary"
)

// sniffStoreFormat reports the format of an existing store file by its
// leading bytes; exists is false for absent or empty files and for one
// holding only the start of the wire magic (a header torn by a crash),
// all of which are free to take any format.
func sniffStoreFormat(path string) (format string, exists bool, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return "", false, nil
	}
	if err != nil {
		return "", false, fmt.Errorf("campaign: open store: %w", err)
	}
	defer f.Close()
	head := make([]byte, len(wire.Magic))
	n, _ := io.ReadFull(f, head) // a short file is simply not a wire file
	switch {
	case n < len(head) && strings.HasPrefix(wire.Magic, string(head[:n])):
		return "", false, nil
	case wire.IsWireFile(head[:n]):
		return FormatBinary, true, nil
	}
	return FormatJSON, true, nil
}

// ReadStore decodes every record of a store file image, in file order,
// strictly read-only: nothing is healed or compacted (fistore inspect
// and verify). It reports the image's format and the length of a torn
// tail, which the next OpenStore would truncate away.
func ReadStore(data []byte, fn func(CellKey, *finject.Result)) (format string, torn int, err error) {
	codec := jsonCodec
	if wire.IsWireFile(data) {
		codec = binaryCodec
	}
	good, err := wire.Replay(data, codec.framing, codec.replay(fn))
	return codec.format, len(data) - good, err
}

// OpenStore opens (creating if absent) the disk store at path in the
// requested format ("json", "binary", or "auto"/"") and loads its index.
// Existing files are routed by sniffing the wire magic, so stores
// written in either format keep opening no matter the flag default;
// requesting a format that contradicts an existing file's actual format
// is an error (convert with fistore instead). New files are created in
// the requested format, defaulting to JSON lines under "auto".
func OpenStore(path, format string) (*DiskStore, error) {
	format = strings.ToLower(strings.TrimSpace(format))
	sniffed, exists, err := sniffStoreFormat(path)
	if err != nil {
		return nil, err
	}
	switch format {
	case FormatAuto, "":
		format = FormatJSON
		if exists {
			format = sniffed
		}
	case FormatJSON, FormatBinary:
		if exists && sniffed != format {
			return nil, fmt.Errorf("campaign: store %s is %s-format, but -store-format=%s was requested (convert it with fistore)", path, sniffed, format)
		}
	default:
		return nil, fmt.Errorf("campaign: unknown store format %q (want %s, %s or %s)", format, FormatAuto, FormatJSON, FormatBinary)
	}
	codec := jsonCodec
	if format == FormatBinary {
		codec = binaryCodec
	}
	d := &DiskStore{codec: codec, idx: make(map[CellKey]*finject.Result)}
	// No fsync per Put: the store is a cache of deterministic results, a
	// cell lost to an OS crash is simply run again.
	d.j, err = wire.OpenJournal(path, codec.framing, false, codec.replay(func(key CellKey, res *finject.Result) {
		d.idx[key] = res
		d.records++
	}))
	if err != nil {
		return nil, fmt.Errorf("campaign: store %s: %w", path, err)
	}
	if d.records-len(d.idx) > CompactDeadThreshold {
		if err := d.Compact(); err != nil {
			d.j.Close()
			return nil, err
		}
	}
	d.mu.Lock()
	d.syncGaugesLocked(len(d.idx), d.records-len(d.idx))
	d.mu.Unlock()
	return d, nil
}

// syncGaugesLocked publishes the store's live/dead record counts (0, 0
// withdraws them). Callers hold d.mu.
func (d *DiskStore) syncGaugesLocked(live, dead int) {
	telemetry.StoreRecordsLive.Add(int64(live - d.lastLive))
	telemetry.StoreRecordsDead.Add(int64(dead - d.lastDead))
	d.lastLive, d.lastDead = live, dead
}

// Compact rewrites the file down to one record per live cell through the
// journal's atomic rewrite, so a crash at any point leaves either the
// old complete file or the new one. The in-memory index and the results
// it shares by pointer are untouched.
func (d *DiskStore) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	defer telemetry.StartSpan(context.Background(), "store_compact")()
	err := d.j.Rewrite(func(put func(payload []byte)) error {
		for _, k := range sortedKeys(d.idx) {
			payload, err := d.codec.encode(k, d.idx[k])
			if err != nil {
				return err
			}
			put(payload)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("campaign: compact store: %w", err)
	}
	d.records = len(d.idx)
	telemetry.StoreCompactions.Inc()
	d.syncGaugesLocked(len(d.idx), d.records-len(d.idx))
	return nil
}

// sortedKeys returns the index's keys in ascending order: stable record
// order keeps equal stores byte-identical on disk.
func sortedKeys(idx map[CellKey]*finject.Result) []CellKey {
	keys := make([]CellKey, 0, len(idx))
	for k := range idx {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Records reports the physical record count of the backing file;
// Records() - Len() of them are dead.
func (d *DiskStore) Records() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.records
}

// Get implements Store from the in-memory index.
func (d *DiskStore) Get(key CellKey) (*finject.Result, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	res, ok := d.idx[key]
	return res, ok, nil
}

// Put implements Store, appending one record.
func (d *DiskStore) Put(key CellKey, res *finject.Result) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	payload, err := d.codec.encode(key, res)
	if err == nil {
		err = d.j.Append(payload)
	}
	if err != nil {
		return fmt.Errorf("campaign: store append: %w", err)
	}
	d.idx[key] = res
	d.records++
	telemetry.StorePuts.Inc()
	d.syncGaugesLocked(len(d.idx), d.records-len(d.idx))
	return nil
}

// Len implements Store.
func (d *DiskStore) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.idx)
}

// Keys returns the live cell keys in ascending order.
func (d *DiskStore) Keys() []CellKey {
	d.mu.Lock()
	defer d.mu.Unlock()
	return sortedKeys(d.idx)
}

// Path returns the backing file's path.
func (d *DiskStore) Path() string { return d.j.Path() }

// Close withdraws the store's contribution from the fleet record gauges
// and closes the backing file. The store must not be used afterwards.
func (d *DiskStore) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.syncGaugesLocked(0, 0)
	return d.j.Close()
}
