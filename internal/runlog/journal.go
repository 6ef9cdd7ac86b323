// Package runlog makes long enumeration runs crash-safe: a coordinator
// writes a durable write-ahead journal of its run identity and per-block
// lifecycle (planned → dispatched → done), streams every block's cliques
// into an idempotent on-disk segment named by the block's stable identity,
// and on restart replays the journal to skip completed work — so a run
// killed hours in resumes instead of re-enumerating, and resumed blocks are
// exactly-once in the merged output.
//
// The journal is a length-prefixed, CRC-32-framed record log. Appends are
// fsync'd (configurable), and replay truncates a torn tail — a record half
// written when the process died — back to the last intact record, the
// standard WAL recovery discipline. Record payloads are a type byte
// followed by uvarint fields, so the format is append-only-evolvable: an
// unknown record type is an error (newer writer), a short payload is
// corruption.
package runlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"mce/internal/telemetry"
)

// journalMagic heads every journal file; the trailing byte is the format
// version.
var journalMagic = [5]byte{'M', 'C', 'E', 'J', 1}

// maxRecordLen bounds one record's payload; anything larger in a frame
// header is treated as corruption (a torn or overwritten length field), not
// an allocation request.
const maxRecordLen = 1 << 20

// record types. The lifecycle of one block is recLevel (planned, as part of
// its level's plan) → recDispatch → recDone.
const (
	recRunBegin byte = iota + 1 // identity of a fresh run
	recResume                   // a new coordinator session attached
	recLevel                    // one recursion level's block plan
	recDispatch                 // block handed to an executor
	recDone                     // block's cliques durably in its segment
	recLevelEnd                 // every block of the level is done
	recRunEnd                   // the run completed
)

// rec is one decoded journal record; unused fields are zero.
type rec struct {
	kind        byte
	graph, opts uint64 // recRunBegin / recResume
	level       int    // recLevel / recDispatch / recDone / recLevelEnd
	blocks      int    // recLevel: planned block count
	plan        int    // recDispatch / recDone: stable block index within the level
	count       int    // recDone: clique count
	digest      uint32 // recDone: cliqstore content digest of the block's cliques
}

// encode appends the record's payload (type byte + uvarint fields).
func (r *rec) encode(buf []byte) []byte {
	buf = append(buf, r.kind)
	put := func(v uint64) {
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	switch r.kind {
	case recRunBegin, recResume:
		put(r.graph)
		put(r.opts)
	case recLevel:
		put(uint64(r.level))
		put(uint64(r.blocks))
	case recDispatch:
		put(uint64(r.level))
		put(uint64(r.plan))
	case recDone:
		put(uint64(r.level))
		put(uint64(r.plan))
		put(uint64(r.count))
		put(uint64(r.digest))
	case recLevelEnd:
		put(uint64(r.level))
	case recRunEnd:
	}
	return buf
}

// decodeRec parses one record payload.
func decodeRec(p []byte) (rec, error) {
	if len(p) == 0 {
		return rec{}, errors.New("runlog: empty record")
	}
	r := rec{kind: p[0]}
	p = p[1:]
	get := func() (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, errors.New("runlog: short record payload")
		}
		p = p[n:]
		return v, nil
	}
	getInt := func(dst *int) error {
		v, err := get()
		if err != nil {
			return err
		}
		if v > 1<<40 {
			return fmt.Errorf("runlog: implausible field value %d", v)
		}
		*dst = int(v)
		return nil
	}
	var err error
	switch r.kind {
	case recRunBegin, recResume:
		if r.graph, err = get(); err != nil {
			return r, err
		}
		if r.opts, err = get(); err != nil {
			return r, err
		}
	case recLevel:
		if err = errors.Join(getInt(&r.level), getInt(&r.blocks)); err != nil {
			return r, err
		}
	case recDispatch:
		if err = errors.Join(getInt(&r.level), getInt(&r.plan)); err != nil {
			return r, err
		}
	case recDone:
		var dig int
		if err = errors.Join(getInt(&r.level), getInt(&r.plan), getInt(&r.count), getInt(&dig)); err != nil {
			return r, err
		}
		r.digest = uint32(dig)
	case recLevelEnd:
		if err = getInt(&r.level); err != nil {
			return r, err
		}
	case recRunEnd:
	default:
		return r, fmt.Errorf("runlog: unknown record type %d (journal from a newer build?)", r.kind)
	}
	if len(p) != 0 {
		return r, fmt.Errorf("runlog: %d trailing bytes in record type %d", len(p), r.kind)
	}
	return r, nil
}

// journal is the framed record log: every Append writes
// [len u32le][crc32 u32le][payload] and optionally fsyncs.
type journal struct {
	f    File
	sync bool
	met  *telemetry.Engine
	buf  []byte
	err  error // first write failure; the journal is dead afterwards
}

// append frames and writes one record; failures stick so a half-written
// frame is never followed by more records in the same session.
func (j *journal) append(r *rec) error {
	if j.err != nil {
		return j.err
	}
	j.buf = j.buf[:0]
	payload := r.encode(j.buf[:0])
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := j.f.Write(hdr[:]); err != nil {
		j.err = fmt.Errorf("runlog: journal write: %w", err)
		return j.err
	}
	if _, err := j.f.Write(payload); err != nil {
		j.err = fmt.Errorf("runlog: journal write: %w", err)
		return j.err
	}
	if j.sync {
		if err := j.f.Sync(); err != nil {
			j.err = fmt.Errorf("runlog: journal sync: %w", err)
			return j.err
		}
	}
	j.met.Inc(telemetry.CheckpointRecords)
	j.met.Add(telemetry.CheckpointBytes, int64(len(hdr)+len(payload)))
	return nil
}

func (j *journal) close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	if j.err != nil {
		return j.err
	}
	return err
}

// replayJournal reads every intact record of the journal at path and
// reports the byte offset of the valid prefix. A torn tail — short frame,
// short payload, checksum mismatch, or an undecodable record — ends the
// replay at the last intact record; everything before a torn tail must
// decode, so corruption in the middle of the file surfaces as a short
// valid prefix rather than being skipped over.
//
// A missing or empty file replays to zero records at offset len(magic),
// i.e. a fresh journal.
func replayJournal(fs FS, path string) (recs []rec, validOff int64, err error) {
	f, err := fs.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, int64(len(journalMagic)), nil
		}
		return nil, 0, fmt.Errorf("runlog: open journal: %w", err)
	}
	defer f.Close()

	var magic [len(journalMagic)]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		// Shorter than the magic: the process died before the header hit
		// the disk. Treat as a fresh journal.
		return nil, int64(len(journalMagic)), nil
	}
	if magic != journalMagic {
		return nil, 0, fmt.Errorf("runlog: %s is not a run journal (bad magic)", path)
	}
	off := int64(len(journalMagic))
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return recs, off, nil // clean end or torn frame header
		}
		plen := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if plen == 0 || plen > maxRecordLen {
			return recs, off, nil // torn or overwritten length
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(f, payload); err != nil {
			return recs, off, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, off, nil // torn or bit-rotted record
		}
		r, err := decodeRec(payload)
		if err != nil {
			return recs, off, nil // undecodable: stop at the last good record
		}
		recs = append(recs, r)
		off += int64(len(hdr)) + int64(plen)
	}
}

// openJournalForAppend opens (creating if absent) the journal at path,
// truncates any torn tail at validOff, and positions the write cursor at
// the end of the valid prefix.
func openJournalForAppend(fs FS, path string, validOff int64, syncWrites bool, met *telemetry.Engine) (*journal, error) {
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runlog: open journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("runlog: stat journal: %w", err)
	}
	if st.Size() < int64(len(journalMagic)) {
		// Fresh (or header-torn) journal: write the magic from scratch.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, fmt.Errorf("runlog: truncate journal: %w", err)
		}
		if _, err := f.WriteAt(journalMagic[:], 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("runlog: write journal header: %w", err)
		}
		validOff = int64(len(journalMagic))
	} else if st.Size() > validOff {
		// Torn tail: cut back to the last intact record so the next append
		// starts a clean frame.
		if err := f.Truncate(validOff); err != nil {
			f.Close()
			return nil, fmt.Errorf("runlog: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(validOff, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("runlog: seek journal: %w", err)
	}
	return &journal{f: f, sync: syncWrites, met: met}, nil
}
