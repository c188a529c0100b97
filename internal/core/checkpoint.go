package core

import (
	"errors"
	"fmt"

	"dmx/internal/lock"
	"dmx/internal/types"
	"dmx/internal/wal"
)

// ErrCheckpointBusy is returned when a checkpoint cannot run because
// another checkpoint is in progress, active writers hold relation locks,
// or read-only snapshot transactions are open (a truncating checkpoint
// would cut the WAL records their version reconstruction reads).
// Checkpoints are opportunistic; callers retry later.
var ErrCheckpointBusy = errors.New("core: checkpoint busy (writers active)")

// Checkpoint writes a recovery checkpoint to the common log and truncates
// the log head before it.
//
// Because restart recovery rebuilds all engine state purely from the log
// (disk pages are a rebuildable cache, and storage page tables and
// attachment state are memory-resident), a truncating checkpoint must
// embed a replayable snapshot: for every relation a catalog descriptor
// record, and for relations of snapshotting storage methods (those whose
// StorageOps.Snapshot is set) one insert record per stored record, all
// logged under the reserved CheckpointTxn. The method hands out each
// record's stored bytes, and the insert payload is built around them
// (AppendStoredInsert): no record is decoded on the way into the log.
//
// Writers are quiesced first: the checkpoint takes every relation's S
// lock non-blockingly (failing with ErrCheckpointBusy if any writer holds
// an incompatible lock) and holds them across the snapshot, so the
// snapshot is the only update activity between the checkpoint record and
// its END — recovery can therefore redo from the checkpoint record alone.
// Attachment state is not snapshotted: recovery rebuilds it from the
// recovered relation contents via the attachment Build operations.
// Attachment types that keep durable state must therefore provide Build
// (all shipped stateful types do); Build-less types are either stateless
// (triggers, validators) or forfeit pre-checkpoint state.
// Relations created by transactions that slip in after the lock sweep are
// not snapshotted, which is sound: all their records carry later LSNs and
// replay in full.
func (env *Env) Checkpoint() error {
	if env.Log == nil {
		return nil
	}
	if !env.checkpointing.CompareAndSwap(false, true) {
		return ErrCheckpointBusy
	}
	defer env.checkpointing.Store(false)
	defer env.Locks.ReleaseAll(wal.CheckpointTxn)

	// Quiesce writers: S-lock every catalogued relation, re-listing until
	// a sweep adds nothing (DDL racing the first sweep can introduce new
	// names). TryAcquire keeps the checkpoint deadlock-free.
	locked := make(map[uint32]bool)
	for round := 0; ; round++ {
		if round > 8 {
			return ErrCheckpointBusy
		}
		added := false
		for _, rd := range env.Cat.Relations() {
			if locked[rd.RelID] {
				continue
			}
			// System relations are virtual process state: nothing to
			// quiesce, snapshot, or freeze (the later loops key on locked).
			if IsSystemRelID(rd.RelID) {
				continue
			}
			if !env.Locks.TryAcquire(wal.CheckpointTxn, lock.RelResource(rd.RelID), lock.ModeS) {
				return ErrCheckpointBusy
			}
			locked[rd.RelID] = true
			added = true
		}
		if !added {
			break
		}
	}

	// Open snapshots pin the log head: their version reconstruction reads
	// WAL records by LSN, which truncation would drop. A snapshot that
	// begins after this check is safe — writers are already quiesced, so
	// every version chain head is stamped below the newcomer's high-water
	// and it reads page state, never the log.
	if env.Txns.ActiveReadOnly() > 0 {
		return ErrCheckpointBusy
	}

	// Every snapshot record is encoded into buf, one buffer reused for the
	// whole snapshot: the log copies each payload it appends.
	var buf []byte
	snap := func(emit func(owner wal.Owner, payload []byte) error) error {
		for _, rd := range env.Cat.Relations() {
			if !locked[rd.RelID] {
				continue // appeared after the lock sweep: replays in full
			}
			// The descriptor record replays through the same path as a
			// logged CREATE, installing schema, SM descriptor and
			// attachment descriptors in one step.
			buf = rd.AppendEncode(append(buf[:0], catCreate))
			if err := emit(wal.Owner{Class: wal.OwnerSystem, RelID: rd.RelID}, buf); err != nil {
				return err
			}
			ops := env.Reg.StorageOps(rd.SM)
			if ops == nil || ops.Snapshot == nil {
				continue
			}
			inst, err := env.StorageInstance(rd)
			if err != nil {
				return fmt.Errorf("checkpoint %s: %w", rd.Name, err)
			}
			owner := wal.Owner{Class: wal.OwnerStorage, ExtID: uint8(rd.SM), RelID: rd.RelID}
			err = ops.Snapshot(inst, func(key types.Key, stored []byte) error {
				buf = AppendStoredInsert(buf[:0], key, stored)
				return emit(owner, buf)
			})
			if err != nil {
				return fmt.Errorf("checkpoint %s: %w", rd.Name, err)
			}
		}
		return nil
	}
	if err := env.Log.Checkpoint(env.Txns.ActiveIDs(), env.Txns.StampHW(), snap); err != nil {
		return err
	}

	// The checkpoint truncated the log head, so version-chain entries
	// referencing pre-checkpoint records can no longer reconstruct from
	// the WAL. Freeze them: the chains are cleared (still under the
	// relation S locks, with no snapshot open), and page state — which
	// the checkpoint just captured — becomes the version every future
	// snapshot starts from. Post-checkpoint writes rebuild chains whose
	// LSNs all sit above the new log head.
	for _, rd := range env.Cat.Relations() {
		if !locked[rd.RelID] {
			continue
		}
		if inst, err := env.StorageInstance(rd); err == nil {
			if vs, ok := inst.(VersionedStorage); ok {
				vs.FreezeVersions()
			}
		}
	}
	return nil
}
