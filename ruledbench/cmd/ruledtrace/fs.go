package main

import (
	"sync"
	"time"

	"activerules/internal/wal"
)

// fsCounters accumulates what the WAL asks of the filesystem.
type fsCounters struct {
	mu     sync.Mutex
	writes int
	bytes  int64
	syncs  int
	syncUS []float64
	busy   time.Duration // time inside Write and Sync
}

func (c *fsCounters) wrote(n int, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	c.bytes += int64(n)
	c.busy += d
}

func (c *fsCounters) synced(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncs++
	c.syncUS = append(c.syncUS, float64(d)/float64(time.Microsecond))
	c.busy += d
}

// fsSnapshot is the counters at one moment; sub gives a span's share.
type fsSnapshot struct {
	writes, syncs int
	bytes         int64
	ms            float64
	syncUS        []float64 // every sync so far; sub keeps the span's
}

func (c *fsCounters) snapshot() fsSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fsSnapshot{writes: c.writes, syncs: c.syncs, bytes: c.bytes,
		ms: float64(c.busy) / float64(time.Millisecond), syncUS: c.syncUS[:len(c.syncUS):len(c.syncUS)]}
}

func (s fsSnapshot) sub(o fsSnapshot) fsSnapshot {
	return fsSnapshot{writes: s.writes - o.writes, syncs: s.syncs - o.syncs, bytes: s.bytes - o.bytes,
		ms: s.ms - o.ms, syncUS: s.syncUS[len(o.syncUS):]}
}

// timingFS wraps a WAL filesystem, timing every file write and sync.
type timingFS struct {
	wal.FS
	c *fsCounters
}

func (f timingFS) Create(name string) (wal.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return timingFile{file, f.c}, nil
}

func (f timingFS) OpenAppend(name string) (wal.File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return timingFile{file, f.c}, nil
}

func (f timingFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := f.FS.SyncDir(dir)
	f.c.synced(time.Since(t0))
	return err
}

type timingFile struct {
	wal.File
	c *fsCounters
}

func (f timingFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.c.wrote(n, time.Since(t0))
	return n, err
}

func (f timingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.c.synced(time.Since(t0))
	return err
}
