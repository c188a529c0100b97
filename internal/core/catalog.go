package core

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"

	"dmx/internal/txn"
	"dmx/internal/wal"
)

// Catalog is the common descriptor-management facility: it stores the
// composite relation descriptors, allocates relation identifiers, and
// makes catalog changes transactional by logging them as system-owned
// records (so aborting a DDL statement restores the descriptors, and
// restart recovery replays them before the data records that need them).
//
// Descriptors handed out by Get/ByName are immutable snapshots: DDL clones,
// mutates, and swaps, so bound query plans embedding an old descriptor are
// never mutated underneath — they detect staleness via the Version field.
// Each swap is also stored in the relation's runtime slot, where open
// Relation handles read it.
type Catalog struct {
	env    *Env
	mu     sync.RWMutex
	rels   map[uint32]*RelDesc
	byName map[string]uint32
	nextID uint32
}

// NewCatalog returns an empty catalog bound to env.
func NewCatalog(env *Env) *Catalog {
	return &Catalog{
		env:    env,
		rels:   make(map[uint32]*RelDesc),
		byName: make(map[string]uint32),
		nextID: 1,
	}
}

// Get returns the current descriptor for relID.
func (c *Catalog) Get(relID uint32) (*RelDesc, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	rd, ok := c.rels[relID]
	return rd, ok
}

// ByName returns the current descriptor for the named relation
// (case-insensitive).
func (c *Catalog) ByName(name string) (*RelDesc, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	id, ok := c.byName[strings.ToLower(name)]
	if !ok {
		return nil, false
	}
	return c.rels[id], true
}

// List returns all relation names in no particular order.
func (c *Catalog) List() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.rels))
	for _, rd := range c.rels {
		out = append(out, rd.Name)
	}
	return out
}

// AllocateRelID reserves a fresh relation identifier.
func (c *Catalog) AllocateRelID() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextID
	c.nextID++
	return id
}

// catalog log payload ops
const (
	catCreate byte = 1
	catDrop   byte = 2
	catUpdate byte = 3
)

// CreateRelation installs rd (whose RelID must be allocated and SMDesc
// filled in by the storage method) under txn control.
func (c *Catalog) CreateRelation(tx *txn.Txn, rd *RelDesc) error {
	c.mu.Lock()
	if _, dup := c.byName[strings.ToLower(rd.Name)]; dup {
		c.mu.Unlock()
		return fmt.Errorf("core: relation %q already exists", rd.Name)
	}
	c.mu.Unlock()
	payload := append([]byte{catCreate}, rd.AppendEncode(nil)...)
	if _, err := tx.AppendLog(wal.Owner{Class: wal.OwnerSystem, RelID: rd.RelID}, payload); err != nil {
		return err
	}
	c.install(rd)
	return nil
}

// DropRelation removes the named relation under txn control. The
// descriptor removal is undoable (the full descriptor is logged); the
// actual release of the relation's storage is deferred until the
// transaction commits, via the deferred action queue, so the drop can be
// undone without logging the entire relation state.
func (c *Catalog) DropRelation(tx *txn.Txn, name string) error {
	rd, ok := c.ByName(name)
	if !ok {
		return fmt.Errorf("core: %w: relation %q", ErrNotFound, name)
	}
	payload := append([]byte{catDrop}, rd.AppendEncode(nil)...)
	if _, err := tx.AppendLog(wal.Owner{Class: wal.OwnerSystem, RelID: rd.RelID}, payload); err != nil {
		return err
	}
	c.remove(rd.RelID)
	relID, sm := rd.RelID, rd.SM
	return tx.Defer(txn.EventCommit, func(*txn.Txn, string) error {
		if ops := c.env.Reg.StorageOps(sm); ops != nil && ops.Drop != nil {
			if err := ops.Drop(c.env, rd); err != nil {
				return err
			}
		}
		c.env.DropInstances(relID)
		return nil
	})
}

// UpdateDesc replaces a relation's descriptor (attachment create/drop)
// under txn control; newRD must be a clone with Version bumped.
func (c *Catalog) UpdateDesc(tx *txn.Txn, oldRD, newRD *RelDesc) error {
	if oldRD.RelID != newRD.RelID {
		return fmt.Errorf("core: descriptor update changes relation id")
	}
	// Payload layout: op | len(old) | old descriptor | new descriptor.
	oldBytes := oldRD.AppendEncode(nil)
	buf := []byte{catUpdate}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(oldBytes)))
	buf = append(buf, oldBytes...)
	buf = append(buf, newRD.AppendEncode(nil)...)
	if _, err := tx.AppendLog(wal.Owner{Class: wal.OwnerSystem, RelID: newRD.RelID}, buf); err != nil {
		return err
	}
	c.install(newRD)
	return c.env.InvalidateRelation(newRD.RelID)
}

func (c *Catalog) install(rd *RelDesc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rels[rd.RelID] = rd
	c.byName[strings.ToLower(rd.Name)] = rd.RelID
	c.publish(rd)
	// System relations live in a reserved high ID range; installing one
	// must not drag the user-relation ID sequence up behind it.
	if rd.RelID >= c.nextID && !IsSystemRelID(rd.RelID) {
		c.nextID = rd.RelID + 1
	}
}

// InstallSystem places a system-relation descriptor in the catalog
// without transaction control or logging: system relations are process
// state, re-registered at every Env construction, never checkpointed or
// recovered. Called by NewEnv only.
func (c *Catalog) InstallSystem(rd *RelDesc) error {
	if !IsSystemRelID(rd.RelID) {
		return fmt.Errorf("core: system relation %q must use a reserved RelID, got %d", rd.Name, rd.RelID)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.byName[strings.ToLower(rd.Name)]; dup {
		return fmt.Errorf("core: system relation %q already installed", rd.Name)
	}
	c.rels[rd.RelID] = rd
	c.byName[strings.ToLower(rd.Name)] = rd.RelID
	c.publish(rd)
	return nil
}

func (c *Catalog) remove(relID uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rd, ok := c.rels[relID]; ok {
		delete(c.byName, strings.ToLower(rd.Name))
		delete(c.rels, relID)
		c.env.slot(relID).dropped.Store(true)
	}
}

// publish stores rd in its relation's runtime slot for open handles.
func (c *Catalog) publish(rd *RelDesc) {
	s := c.env.slot(rd.RelID)
	s.rd.Store(rd)
	s.dropped.Store(false)
}

// ApplySystemLogged implements undo/redo for catalog log records: undo of
// create removes the relation, undo of drop restores it, undo of update
// restores the old descriptor; redo repeats the forward action.
func (c *Catalog) ApplySystemLogged(payload []byte, undo bool) error {
	if len(payload) < 1 {
		return fmt.Errorf("core: empty catalog log payload")
	}
	op := payload[0]
	body := payload[1:]
	switch op {
	case catCreate, catDrop:
		rd, _, err := DecodeRelDesc(body)
		if err != nil {
			return err
		}
		removeIt := (op == catCreate) == undo // create+undo or drop+redo
		if removeIt {
			c.remove(rd.RelID)
			c.env.DropInstances(rd.RelID)
			return nil
		}
		c.install(rd)
		return c.env.InvalidateRelation(rd.RelID)
	case catUpdate:
		if len(body) < 4 {
			return fmt.Errorf("core: truncated catalog update payload")
		}
		oldLen := int(binary.BigEndian.Uint32(body))
		if len(body) < 4+oldLen {
			return fmt.Errorf("core: truncated catalog update old descriptor")
		}
		oldRD, _, err := DecodeRelDesc(body[4 : 4+oldLen])
		if err != nil {
			return err
		}
		newRD, _, err := DecodeRelDesc(body[4+oldLen:])
		if err != nil {
			return err
		}
		if undo {
			c.install(oldRD)
			return c.env.InvalidateRelation(oldRD.RelID)
		}
		c.install(newRD)
		return c.env.InvalidateRelation(newRD.RelID)
	default:
		return fmt.Errorf("core: unknown catalog log op %d", op)
	}
}
