package checkpoint

import (
	"sync"
	"time"
)

// AsyncWriter decouples checkpoint persistence from the control loop.
// Encoding must happen synchronously (the components are mutable and
// advance every interval), but the resulting byte slice is immutable,
// so the disk write — fsync included — runs on a background goroutine.
// Submissions are latest-wins: if the disk is slower than the
// checkpoint cadence, intermediate snapshots are dropped rather than
// queued, bounding memory to one in-flight plus one pending snapshot.
//
// The writer owns a submitted buffer. Once its write has settled — Save
// returned, or a newer submission replaced it while it was still
// pending — and never while Save is reading it, the buffer goes on a
// free list that Buffer hands back out for the next encode.
type AsyncWriter struct {
	save func(seq uint64, data []byte) error // the store's Save; a test slows it

	mu      sync.Mutex
	pending *snapshot // next snapshot to write, replaced by newer submissions
	free    [][]byte  // settled buffers awaiting reuse, at most maxFree
	running bool      // a writer goroutine is draining pending
	lastErr error     // most recent write failure
	stats   WriteStats
	wg      sync.WaitGroup
}

// WriteStats describes the writer's persistence activity, for metrics
// export: how many snapshots reached disk, how many were dropped by the
// latest-wins policy, and how long the most recent write (fsync
// included) took and when it completed.
type WriteStats struct {
	// Writes counts completed (successful) disk writes; Failed counts
	// writes that returned an error.
	Writes int
	Failed int
	// Dropped counts snapshots replaced in the pending slot before the
	// writer got to them (disk slower than the checkpoint cadence).
	Dropped int
	// LastSeq is the sequence number of the newest successful write;
	// LastDuration its wall-clock cost; LastWrite its completion time.
	LastSeq      uint64
	LastDuration time.Duration
	LastWrite    time.Time
}

type snapshot struct {
	seq  uint64
	data []byte
}

// NewAsyncWriter wraps store.
func NewAsyncWriter(store *Store) *AsyncWriter {
	return &AsyncWriter{save: store.Save}
}

// maxFree bounds the free list: one buffer for the write in flight and
// one for the encode that overlaps it is all a steady cadence uses.
const maxFree = 2

// Buffer returns storage for the next container to Submit — a settled
// buffer, emptied, for MarshalAppend to fill — or nil when none is free.
// The caller owns it until it submits it.
func (w *AsyncWriter) Buffer() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.free)
	if n == 0 {
		return nil
	}
	buf := w.free[n-1]
	w.free[n-1] = nil
	w.free = w.free[:n-1]
	return buf[:0]
}

// recycleLocked takes a settled buffer onto the free list, or drops it
// when the list is full (caller holds the lock).
func (w *AsyncWriter) recycleLocked(data []byte) {
	if len(w.free) < maxFree {
		w.free = append(w.free, data)
	}
}

// Submit hands a snapshot to the background writer and returns
// immediately. The writer owns data from here on: the caller must not
// read or write it again (see Buffer).
func (w *AsyncWriter) Submit(seq uint64, data []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.pending != nil {
		w.stats.Dropped++
		w.recycleLocked(w.pending.data) // superseded before any write read it
	}
	w.pending = &snapshot{seq: seq, data: data}
	if w.running {
		return
	}
	w.running = true
	w.wg.Add(1)
	go w.drain()
}

func (w *AsyncWriter) drain() {
	defer w.wg.Done()
	for {
		w.mu.Lock()
		snap := w.pending
		w.pending = nil
		if snap == nil {
			w.running = false
			w.mu.Unlock()
			return
		}
		w.mu.Unlock()

		start := time.Now()
		err := w.save(snap.seq, snap.data)
		elapsed := time.Since(start)

		w.mu.Lock()
		w.recycleLocked(snap.data)
		if err != nil {
			w.lastErr = err
			w.stats.Failed++
		} else {
			w.stats.Writes++
			w.stats.LastSeq = snap.seq
			w.stats.LastDuration = elapsed
			w.stats.LastWrite = start.Add(elapsed)
		}
		w.mu.Unlock()
	}
}

// Stats returns a snapshot of the writer's persistence counters.
func (w *AsyncWriter) Stats() WriteStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Flush blocks until every submitted snapshot has been written (or
// failed) and returns the most recent write error, if any. Call before
// process exit so the final checkpoint is durable.
func (w *AsyncWriter) Flush() error {
	w.wg.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastErr
}
