// Package core implements the data management extension architecture —
// the primary contribution of Lindsay, McPherson & Pirahesh (SIGMOD 1987).
//
// The architecture treats data management extensions as alternative
// implementations of two generic abstractions:
//
//   - relation storage methods, which own the stored records of a relation
//     and define its record keys; and
//   - attachments (access paths, integrity constraints, and triggers),
//     whose modification interfaces are invoked only as side effects of
//     relation modifications and any of which may veto the modification.
//
// Each extension supplies a fixed table of generic operations
// (StorageOps / AttachmentOps). The tables are installed in procedure
// vectors indexed by small-integer extension identifiers (Registry), so
// activating the appropriate extension from a relation descriptor is a
// constant-time array index. Relation descriptors (RelDesc) are
// record-structured: the header carries the storage method identifier and
// descriptor, and field N carries the descriptor for attachment type N.
//
// The package also provides the common services the paper specifies:
// log-driven undo for vetoed modifications, partial rollback and restart
// recovery (dispatching to the owning extension), scan-position management
// around savepoints, deferred action queues, descriptor management, and
// predicate evaluation pushed to buffer-resident records.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// SMID is a storage method identifier: a small integer indexing the
// storage-method procedure vectors. SMID 0 is reserved (invalid).
type SMID uint8

// AttID is an attachment type identifier: a small integer indexing the
// attachment procedure vectors. AttID 0 is reserved (invalid).
type AttID uint8

// Vector capacities. The record-structured relation descriptor "limits the
// number of different attachment types to a few dozen"; we pick 32.
const (
	MaxStorageMethods  = 32
	MaxAttachmentTypes = 32
)

// Well-known extension identifiers. The base system assigns the temporary
// relation storage method identifier 1, as in the paper; the rest are the
// extensions "linked in at the factory" by this repository.
const (
	SMTemp   SMID = 1 // temporary (non-recoverable) relations
	SMHeap   SMID = 2 // slotted-page heap files
	SMBTree  SMID = 3 // B-tree-organised relations (records in the leaves)
	SMMemory SMID = 4 // main-memory relations for high-traffic tables
	SMAppend SMID = 5 // read-only/append-only "database publishing" storage
	SMRemote SMID = 6 // foreign-database relations over a network protocol
	SMSys    SMID = 7 // read-only virtual relations over live engine state
	SMPart   SMID = 8 // hash-partitioned relations across remote backends
)

// Well-known attachment type identifiers.
const (
	AttBTree   AttID = 1  // B-tree secondary index
	AttHash    AttID = 2  // hash index
	AttRTree   AttID = 3  // R-tree spatial index
	AttJoin    AttID = 4  // join index (each side: join value → record keys)
	AttCheck   AttID = 5  // single-record integrity constraint
	AttRefInt  AttID = 6  // referential integrity constraint
	AttTrigger AttID = 7  // trigger
	AttStats   AttID = 8  // statistics maintenance
	AttAggMV   AttID = 9  // precomputed (materialised) aggregates
	AttUnique  AttID = 10 // uniqueness constraint
)

// AttrList is the attribute/value list carried by extended data definition
// statements; storage method and attachment implementations validate and
// interpret it ("some storage methods may support multiple devices and
// will need to be told where to put a specific instance").
type AttrList map[string]string

// Get returns the value for key (case-insensitive) and whether it was set.
func (a AttrList) Get(key string) (string, bool) {
	for k, v := range a {
		if strings.EqualFold(k, key) {
			return v, true
		}
	}
	return "", false
}

// Keys returns the sorted attribute names (for deterministic validation
// error messages).
func (a AttrList) Keys() []string {
	out := make([]string, 0, len(a))
	for k := range a {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// CheckAllowed verifies every attribute name is in the allowed set;
// extensions call it from their ValidateAttrs operation.
func (a AttrList) CheckAllowed(extension string, allowed ...string) error {
	for _, k := range a.Keys() {
		ok := false
		for _, al := range allowed {
			if strings.EqualFold(k, al) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("core: %s does not accept attribute %q (allowed: %s)",
				extension, k, strings.Join(allowed, ", "))
		}
	}
	return nil
}

// VetoError wraps the error with which an attachment (or the storage
// method) vetoed a relation modification. The whole modification is undone
// via the common log when a veto occurs.
type VetoError struct {
	Extension string // name of the vetoing extension
	Reason    error
}

// Error implements error.
func (e *VetoError) Error() string {
	return fmt.Sprintf("core: modification vetoed by %s: %v", e.Extension, e.Reason)
}

// Unwrap exposes the veto reason.
func (e *VetoError) Unwrap() error { return e.Reason }

// ErrNotFound is returned for direct-by-key accesses to absent keys and for
// catalog lookups of unknown relations.
var ErrNotFound = errors.New("core: not found")

// ErrFiltered is returned by FetchByKey when the record exists but does not
// satisfy the pushed-down filter predicate.
var ErrFiltered = errors.New("core: record rejected by filter")

// ErrReadOnly is returned by storage methods that do not support the
// attempted modification (e.g. the database-publishing storage method).
var ErrReadOnly = errors.New("core: storage method is read-only")
