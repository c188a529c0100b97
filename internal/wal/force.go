package wal

import (
	"fmt"
	"time"

	"dmx/internal/fault"
	"dmx/internal/obs"
)

// extentSize is the step the backing file grows by. A round that would
// write past the allocated end first zero-fills through the next extent
// boundary, so every other round overwrites bytes the file already has
// instead of growing it, which drags a file-system journal commit into
// the fsync. Open and Close trim the zero tail.
const extentSize = 1 << 20

var zeroExtent [extentSize]byte

// forceLocked returns once every record through lsn is on stable storage.
// One force round is in flight at a time: a caller that finds none running
// leads one and counts it in led; a caller that finds one running waits
// for it to end and looks again. A
// round cuts the frames past durable out of the window, writes and syncs
// them with l.mu released, then publishes durable: appenders never wait
// behind the file, and a record appended during a round is covered by the
// next. A failed round leaves durable and goodEnd where they were and the
// frames in the window, so the next round writes the same bytes at the
// same offset again. l.mu is held on entry and on return.
func (l *Log) forceLocked(lsn LSN, led *obs.Counter) error {
	for l.durable < lsn {
		if l.forcing {
			l.synced.Wait()
			continue
		}
		l.forcing = true
		target := l.next - 1
		var n int64
		var err error
		if l.file != nil {
			l.cut = l.chunksLocked(l.cut[:0], l.durable+1)
			l.mu.Unlock()
			n, err = l.writeCut(l.file, l.goodEnd, true)
			l.mu.Lock()
		}
		if err == nil {
			// The post-fsync crash site models losing the process after the
			// records are durable but before anyone learns of it.
			err = l.faults.Hit(fault.SiteWALSynced)
		}
		l.forcing = false
		// Waiters are woken on failure too: they lead the next round and
		// observe their own errors rather than waiting forever.
		l.synced.Broadcast()
		if err != nil {
			return err
		}
		l.goodEnd += n
		l.durable = target
		if led != nil {
			led.Inc()
		}
	}
	return nil
}

// idleLocked waits until no force round is in flight.
func (l *Log) idleLocked() {
	for l.forcing {
		l.synced.Wait()
	}
}

// writeCut writes l.cut to f at off and syncs f, returning the bytes
// written. It runs in the one round in flight, without l.mu. On the log's
// own file (extend) it first zero-fills through the extent boundary past
// the cut; a head rewrite's fresh file is written exactly. An injected
// torn write leaves the tear on disk (the simulated machine is off).
func (l *Log) writeCut(f logFile, off int64, extend bool) (int64, error) {
	var total int64
	for _, c := range l.cut {
		total += int64(len(c))
	}
	allow, ferr := l.faults.BeforeWrite(fault.SiteWALFlush, int(total))
	start := time.Now()
	for end := off + total; extend && ferr == nil && l.allocated < end; {
		grow := extentSize - l.allocated%extentSize
		if _, err := f.WriteAt(zeroExtent[:grow], l.allocated); err != nil {
			return 0, fmt.Errorf("wal: extend: %w", err)
		}
		l.allocated += grow
	}
	for _, c := range l.cut {
		c = c[:min(len(c), allow)]
		if _, err := f.WriteAt(c, off); err != nil && ferr == nil {
			return 0, fmt.Errorf("wal: write frames: %w", err)
		}
		off += int64(len(c))
		allow -= len(c)
	}
	if ferr != nil {
		return 0, ferr
	}
	if err := l.syncDir(); err != nil {
		return 0, err
	}
	l.obs.Syncs.Inc()
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("wal: fsync: %w", err)
	}
	l.obs.ForceSeconds.Observe(time.Since(start))
	return total, nil
}

// Sync forces every record appended so far to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.forceLocked(l.next-1, nil)
}

// Durable returns the highest LSN known to be on stable storage.
func (l *Log) Durable() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// SyncCommitted makes the commit record at lsn durable using group
// commit: the committer that finds no round in flight leads one, forcing
// the log once for every commit appended so far; committers arriving
// during a round wait for it, and the first of them to wake leads the next
// round for all of them.
func (l *Log) SyncCommitted(lsn LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.forceLocked(lsn, &l.obs.GroupBatches); err != nil {
		return err
	}
	l.obs.GroupCommits.Inc()
	return nil
}

// ForceTo forces the log through lsn. The buffer pool calls it to honour
// the write-ahead rule before a dirty page leaves the pool; it returns at
// once when lsn is already durable and joins a round in flight otherwise.
func (l *Log) ForceTo(lsn LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.forceLocked(lsn, &l.obs.ForcedSyncs)
}

// Close forces buffered records to stable storage, trims the preallocated
// tail and releases the backing file, if any.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file == nil {
		return nil
	}
	err := l.forceLocked(l.next-1, nil)
	l.idleLocked()
	if err == nil {
		err = l.file.Truncate(l.goodEnd)
	}
	if err == nil {
		err = l.file.Sync()
	}
	if err == nil {
		err = l.syncDir()
	}
	if cerr := l.file.Close(); err == nil {
		err = cerr
	}
	l.file = nil
	return err
}
