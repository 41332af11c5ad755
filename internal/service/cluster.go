package service

import (
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Horizontal control plane. N fiservers may be started against one
// shared -cluster-dir (a directory on a common filesystem, next to the
// shared result/job stores): exactly one of them — the owner — opens
// the stores and serves traffic, the rest stand by answering 503 so
// clients and workers rotate to the owner. Ownership is agreed through
// the ownership journal, an append-only wire-format file (FileOwner) of
// epoch claim/heartbeat/release records:
//
//	standby ──claim (no live owner)──▶ active
//	active  ──heartbeat every TTL/3──▶ active
//	active  ──observes higher epoch──▶ deposed  (fenced out, stops serving)
//	active  ──Close────────────────────▶ released (a standby claims at once)
//
// A SIGKILLed owner simply stops heartbeating; when its last record
// ages past the takeover TTL a standby claims the next epoch, runs the
// ordinary PR-7 journal recovery over the shared job store — adopting
// every job the dead server left behind — and starts serving. Epochs
// are fencing tokens: claims must strictly exceed every epoch in the
// file, and an owner that sees a higher epoch than its own abdicates
// instead of split-braining, so at most one server believes it owns the
// stores once writes become visible. The protocol leans on the shared
// filesystem's append ordering and loosely synchronized clocks — the
// deployment it targets is a fleet on one host or one NFS volume, not a
// WAN consensus system (DESIGN.md spells out the model).

// DefaultTakeoverTTL is how stale an owner's last heartbeat must be
// before a standby claims ownership.
const DefaultTakeoverTTL = 10 * time.Second

// OwnershipFile is the ownership journal's filename inside the cluster
// directory.
const OwnershipFile = "ownership.fiwr"

// Cluster wraps a lazily-activated Server in the ownership state
// machine. It is the http.Handler the cluster-mode fiserver mounts:
// while standby every request answers 503 (code "unavailable"), and
// once this node claims ownership the activate hook builds the real
// handler — opening the shared stores and recovering the job journal —
// which serves from then on.
type Cluster struct {
	path     string
	server   string
	ttl      time.Duration
	activate func() (http.Handler, error)

	log       *slog.Logger
	now       func() time.Time
	onDeposed func()
	// onActive, when set, observes activation (test hook and boot log).
	onActive func(epoch uint64)

	mu      sync.Mutex
	state   string // "standby", "active" or "deposed"
	epoch   uint64
	handler http.Handler

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// NewCluster prepares a cluster member named serverID over dir's
// ownership journal. activate is called at most once, on the standby →
// active transition; it must open the shared stores, run job-store
// recovery and return the traffic handler. ttl <= 0 means
// DefaultTakeoverTTL.
func NewCluster(dir, serverID string, ttl time.Duration, activate func() (http.Handler, error)) *Cluster {
	if ttl <= 0 {
		ttl = DefaultTakeoverTTL
	}
	return &Cluster{
		path:     filepath.Join(dir, OwnershipFile),
		server:   serverID,
		ttl:      ttl,
		activate: activate,
		log:      slog.Default(),
		now:      time.Now,
		state:    "standby",
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// SetLogger replaces the cluster's logger.
func (c *Cluster) SetLogger(l *slog.Logger) {
	if l != nil {
		c.log = l
	}
}

// OnDeposed registers a hook invoked (once, from the heartbeat
// goroutine) when this node is fenced out by a higher epoch. The
// fiserver binary uses it to exit: a deposed node's in-memory state is
// stale by definition and a fresh boot rejoins as standby.
func (c *Cluster) OnDeposed(fn func()) { c.onDeposed = fn }

// State reports the node's current role and epoch.
func (c *Cluster) State() (string, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state, c.epoch
}

// Start attempts an immediate claim (so a lone server boots straight
// into active) and launches the background claim/heartbeat loop.
func (c *Cluster) Start() error {
	if _, err := c.tryClaim(); err != nil {
		return err
	}
	go c.loop()
	return nil
}

// Close stops the loop; an active node appends a release record so a
// standby peer can claim immediately instead of waiting out the TTL.
func (c *Cluster) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
	c.mu.Lock()
	active, epoch := c.state == "active", c.epoch
	c.mu.Unlock()
	if active {
		c.append(wire.OwnerRecord{Epoch: epoch, Server: c.server, Event: wire.OwnerRelease})
		telemetry.ClusterActive.Set(0)
	}
}

// ServeHTTP gates traffic on ownership. /healthz always answers (load
// balancers must be able to probe a standby) and reports the role.
func (c *Cluster) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	state, epoch, h := c.state, c.epoch, c.handler
	c.mu.Unlock()
	if state == "active" && h != nil {
		h.ServeHTTP(w, r)
		return
	}
	if r.URL.Path == "/healthz" {
		writeJSON(w, http.StatusOK, api.ClusterHealth{Status: state, Server: c.server, Epoch: epoch})
		return
	}
	httpError(w, http.StatusServiceUnavailable, "server %s is %s: it does not own the job store", c.server, state)
}

// loop is the background state machine: standbys poll for a stale
// owner, the owner heartbeats and watches for a usurping epoch.
func (c *Cluster) loop() {
	defer close(c.done)
	tick := c.ttl / 3
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		c.mu.Lock()
		state, epoch := c.state, c.epoch
		c.mu.Unlock()
		switch state {
		case "standby":
			if _, err := c.tryClaim(); err != nil {
				c.log.Warn("cluster claim failed", "server", c.server, "err", err)
			}
		case "active":
			if err := c.beat(epoch); err != nil {
				c.log.Warn("cluster heartbeat failed", "server", c.server, "err", err)
			}
		case "deposed":
			return
		}
	}
}

// beat renews the owner's lease and checks for a usurper. Written
// before read: even if a concurrent claim lands first, the usurper's
// higher epoch wins the subsequent scan and this node deposes itself.
func (c *Cluster) beat(epoch uint64) error {
	if err := c.append(wire.OwnerRecord{Epoch: epoch, Server: c.server, Event: wire.OwnerBeat}); err != nil {
		return err
	}
	recs, err := c.read()
	if err != nil {
		return err
	}
	maxEpoch, owner, _ := ownerStatus(recs, c.now(), c.ttl)
	if maxEpoch > epoch || (maxEpoch == epoch && owner != c.server) {
		c.depose(maxEpoch, owner)
	}
	return nil
}

// depose fences this node out: it stops serving (back to 503s) and
// never reclaims — the deposed state is terminal for the process.
func (c *Cluster) depose(epoch uint64, owner string) {
	c.mu.Lock()
	c.state = "deposed"
	c.mu.Unlock()
	telemetry.ClusterActive.Set(0)
	telemetry.ClusterEpoch.Set(int64(epoch))
	c.log.Warn("cluster ownership lost", "server", c.server, "usurper", owner, "epoch", epoch)
	if c.onDeposed != nil {
		c.onDeposed()
	}
}

// tryClaim claims ownership if the journal shows no live owner. It
// returns whether this node is (now) the owner.
func (c *Cluster) tryClaim() (bool, error) {
	recs, err := c.read()
	if err != nil {
		return false, err
	}
	epoch, owner, live := ownerStatus(recs, c.now(), c.ttl)
	if live && owner != c.server {
		return false, nil
	}
	next := epoch + 1
	takeover := epoch > 0 && owner != c.server
	if err := c.append(wire.OwnerRecord{Epoch: next, Server: c.server, Event: wire.OwnerClaim}); err != nil {
		return false, err
	}
	// Two standbys may race to claim the same epoch; the journal's
	// append order is the tiebreak — the first claim at that epoch wins,
	// the loser stays standby and sees the winner's heartbeats.
	recs, err = c.read()
	if err != nil {
		return false, err
	}
	for _, rec := range recs {
		if rec.Event != wire.OwnerClaim || rec.Epoch < next {
			continue
		}
		if rec.Epoch > next || rec.Server != c.server {
			return false, nil
		}
		break
	}
	return true, c.activated(next, takeover)
}

// activated runs the activate hook and publishes the handler. An
// activation failure (corrupt store, bad journal) is fatal to the
// claim: the node releases the epoch and reports the error, rather than
// squatting on an ownership it cannot serve.
func (c *Cluster) activated(epoch uint64, takeover bool) error {
	h, err := c.activate()
	if err != nil {
		c.append(wire.OwnerRecord{Epoch: epoch, Server: c.server, Event: wire.OwnerRelease})
		return fmt.Errorf("cluster activation: %w", err)
	}
	c.mu.Lock()
	c.state = "active"
	c.epoch = epoch
	c.handler = h
	c.mu.Unlock()
	telemetry.ClusterActive.Set(1)
	telemetry.ClusterEpoch.Set(int64(epoch))
	if takeover {
		telemetry.ClusterTakeovers.Inc()
	}
	c.log.Info("cluster ownership claimed", "server", c.server, "epoch", epoch, "takeover", takeover)
	if c.onActive != nil {
		c.onActive(epoch)
	}
	return nil
}

// ownerStatus reduces the journal to (highest epoch, its server, live).
// An epoch is live while its latest record is not a release and is
// younger than the takeover TTL.
func ownerStatus(recs []wire.OwnerRecord, now time.Time, ttl time.Duration) (epoch uint64, server string, live bool) {
	var last wire.OwnerRecord
	for _, rec := range recs {
		if rec.Epoch >= last.Epoch {
			last = rec
		}
	}
	if last.Epoch == 0 {
		return 0, "", false
	}
	age := now.Sub(time.UnixMilli(last.UnixMillis))
	return last.Epoch, last.Server, last.Event != wire.OwnerRelease && age <= ttl
}

// read scans the ownership journal, tolerating a missing file (first
// boot) and a torn tail (a SIGKILL mid-append never forges a record).
func (c *Cluster) read() ([]wire.OwnerRecord, error) {
	data, err := os.ReadFile(c.path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	recs, _, err := wire.ReplayOwners(data)
	if err != nil {
		return nil, fmt.Errorf("ownership journal %s: %w", c.path, err)
	}
	return recs, nil
}

// append stamps and durably appends one record. Several processes share
// the file, so the journal is opened per operation: that heals a torn
// tail (the writer-side half of the torn-tail rule) and the O_APPEND
// write lands after whatever the peers appended in the meantime — the
// claim tiebreak in tryClaim depends on no claim ever overwriting
// another.
func (c *Cluster) append(rec wire.OwnerRecord) error {
	rec.UnixMillis = c.now().UnixMilli()
	if err := wire.AppendShared(c.path, wire.OwnerFraming, wire.EncodeOwner(rec)); err != nil {
		return fmt.Errorf("ownership journal %s: %w", c.path, err)
	}
	return nil
}
