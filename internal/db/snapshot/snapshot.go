// Package snapshot persists a sealed db.Database as a versioned,
// checksummed binary file and loads it back without reparsing text.
//
// The format (all integers big-endian uint32, CRC32-IEEE checksums):
//
//	header:   magic "WDPTSNAP" | format version | relation count
//	dict:     term count | (length, bytes) per term, sorted | section CRC
//	relation: name length | name | arity | row count
//	          | columns (arity × row count IDs, column-major) | section CRC
//	          ... one section per relation, sorted by name ...
//	footer:   end magic "WSNAPEND" | whole-file CRC over all prior bytes
//
// The footer is written last, so a torn write is detectable as a missing
// end magic; every section additionally carries its own CRC so localized
// bit rot is attributed to the section it hit. The loader validates
// everything — magic, version, footer, checksums, counts against available
// bytes, term ordering, ID ranges, duplicate rows — and fails with a typed,
// errors.Is-able taxonomy (ErrBadMagic, ErrVersion, ErrTruncated,
// ErrChecksum, ErrFormat). It never panics and never returns a database
// built from data that failed any check.
//
// Durability is Write's job: temp file in the target directory, chunked
// writes, fsync, atomic rename, directory fsync — see atomic.go. All file
// I/O passes through guard fault-injection sites (snapshot.write,
// snapshot.fsync, snapshot.rename, snapshot.read) so the chaos suite can
// kill the writer at every step and assert recovery.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"wdpt/internal/db"
	"wdpt/internal/guard"
)

// FormatVersion is the snapshot format this package writes and the only
// version it reads. Any layout change — field widths, section order,
// checksum algorithm — must bump it; a reader seeing an unknown version
// refuses with ErrVersion rather than guessing.
const FormatVersion = 1

const (
	magic    = "WDPTSNAP"
	endMagic = "WSNAPEND"
	// headerSize is magic + version + relation count.
	headerSize = len(magic) + 4 + 4
	// footerSize is end magic + whole-file CRC.
	footerSize = len(endMagic) + 4
)

// The loader's error taxonomy. Every load failure wraps exactly one of
// these sentinels, so callers dispatch with errors.Is instead of string
// matching.
var (
	// ErrBadMagic: the file does not start with the snapshot magic — not a
	// snapshot at all.
	ErrBadMagic = errors.New("bad magic")
	// ErrVersion: the file is a snapshot, but of a format version this
	// reader does not understand.
	ErrVersion = errors.New("unsupported format version")
	// ErrTruncated: the file ends before its declared content does — a torn
	// write, a partial copy, or a length field claiming more bytes than
	// exist.
	ErrTruncated = errors.New("truncated")
	// ErrChecksum: a section or whole-file CRC does not match — bit rot or
	// a corrupted write.
	ErrChecksum = errors.New("checksum mismatch")
	// ErrFormat: the bytes are intact but semantically invalid — unsorted
	// terms, out-of-range IDs, duplicate rows or relation names, zero
	// arity, trailing garbage.
	ErrFormat = errors.New("malformed payload")
)

// Encode serializes d into the snapshot format. The database must be
// sealed (Database.Seal): the format stores raw term IDs against the
// sorted dictionary, so an unsealed ID assignment would not round-trip
// canonically.
func Encode(d *db.Database) ([]byte, error) {
	if !d.Dict().Sorted() {
		return nil, fmt.Errorf("snapshot: database not sealed (dictionary not in sorted-term order)")
	}
	rels := d.Relations()
	terms := d.Dict().Terms()

	buf := make([]byte, 0, encodedSizeHint(terms, rels))
	buf = append(buf, magic...)
	buf = binary.BigEndian.AppendUint32(buf, FormatVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rels)))

	start := len(buf)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(terms)))
	for _, t := range terms {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(t)))
		buf = append(buf, t...)
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))

	for _, r := range rels {
		start = len(buf)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Name())))
		buf = append(buf, r.Name()...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.Arity()))
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.Len()))
		for _, col := range r.Columns() {
			for _, id := range col {
				buf = binary.BigEndian.AppendUint32(buf, id)
			}
		}
		buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
	}

	fileCRC := crc32.ChecksumIEEE(buf)
	buf = append(buf, endMagic...)
	buf = binary.BigEndian.AppendUint32(buf, fileCRC)
	return buf, nil
}

func encodedSizeHint(terms []string, rels []*db.Relation) int {
	n := headerSize + footerSize + 8
	for _, t := range terms {
		n += 4 + len(t)
	}
	for _, r := range rels {
		n += 16 + len(r.Name()) + r.Arity()*r.Len()*4
	}
	return n
}

// Decode validates data as a snapshot and rebuilds the database. Every failure wraps one of the package's typed sentinels;
// Decode never panics on any input, however mangled.
func Decode(data []byte) (*db.Database, error) {
	if len(data) < len(magic) {
		if !bytes.HasPrefix([]byte(magic), data) {
			return nil, fmt.Errorf("snapshot: %w", ErrBadMagic)
		}
		return nil, fmt.Errorf("snapshot: %d bytes is shorter than the magic: %w", len(data), ErrTruncated)
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("snapshot: %w", ErrBadMagic)
	}
	if len(data) < headerSize {
		return nil, fmt.Errorf("snapshot: header cut short at %d bytes: %w", len(data), ErrTruncated)
	}
	version := binary.BigEndian.Uint32(data[len(magic):])
	if version != FormatVersion {
		return nil, fmt.Errorf("snapshot: version %d (reader understands %d): %w", version, FormatVersion, ErrVersion)
	}
	relCount := binary.BigEndian.Uint32(data[len(magic)+4:])

	if len(data) < headerSize+footerSize {
		return nil, fmt.Errorf("snapshot: no room for footer: %w", ErrTruncated)
	}
	end := len(data) - footerSize
	if string(data[end:end+len(endMagic)]) != endMagic {
		return nil, fmt.Errorf("snapshot: footer magic missing (torn write): %w", ErrTruncated)
	}
	fileCRC := binary.BigEndian.Uint32(data[end+len(endMagic):])
	if crc32.ChecksumIEEE(data[:end]) != fileCRC {
		return nil, fmt.Errorf("snapshot: whole-file CRC: %w", ErrChecksum)
	}

	r := &reader{buf: data[headerSize:end]}

	// Every declared count is held against the bytes actually present
	// before anything is allocated from it, so a fuzzed count of 2^31
	// cannot become a 8 GiB allocation.
	terms, err := r.dictSection()
	if err != nil {
		return nil, err
	}
	if uint64(relCount)*16 > uint64(r.remaining()) {
		return nil, fmt.Errorf("snapshot: %d relations declared but only %d bytes remain: %w", relCount, r.remaining(), ErrTruncated)
	}
	rels := make([]db.BulkRelation, 0, relCount)
	for i := uint32(0); i < relCount; i++ {
		br, err := r.relationSection(i)
		if err != nil {
			return nil, err
		}
		rels = append(rels, br)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after last relation: %w", r.remaining(), ErrFormat)
	}

	d, err := db.NewFromColumns(terms, rels)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %v: %w", err, ErrFormat)
	}
	return d, nil
}

// Read loads the snapshot at path. The read is a
// fault-injection site (guard.SiteSnapshotRead). File-system errors are
// returned wrapped (so errors.Is(err, fs.ErrNotExist) still works);
// content errors carry the package's typed taxonomy.
func Read(path string) (*db.Database, error) {
	if err := guard.FaultErr(guard.SiteSnapshotRead); err != nil {
		return nil, fmt.Errorf("snapshot: read %s: %w", path, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: read %s: %w", path, err)
	}
	d, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// reader is a bounds-checked cursor over the snapshot body (between header
// and footer). All failures surface as typed errors, never panics.
type reader struct {
	buf []byte
	off int
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) u32(what string) (uint32, error) {
	if r.remaining() < 4 {
		return 0, fmt.Errorf("snapshot: %s cut short: %w", what, ErrTruncated)
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) bytes(n int, what string) ([]byte, error) {
	if r.remaining() < n {
		return nil, fmt.Errorf("snapshot: %s declares %d bytes but only %d remain: %w", what, n, r.remaining(), ErrTruncated)
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out, nil
}

// checkCRC reads the section CRC and holds it against the section's bytes
// starting at start (a prior r.off).
func (r *reader) checkCRC(start int, what string) error {
	sum := crc32.ChecksumIEEE(r.buf[start:r.off])
	stored, err := r.u32(what + " CRC")
	if err != nil {
		return err
	}
	if sum != stored {
		return fmt.Errorf("snapshot: %s CRC: %w", what, ErrChecksum)
	}
	return nil
}

func (r *reader) dictSection() ([]string, error) {
	start := r.off
	termCount, err := r.u32("term count")
	if err != nil {
		return nil, err
	}
	if uint64(termCount)*4 > uint64(r.remaining()) {
		return nil, fmt.Errorf("snapshot: %d terms declared but only %d bytes remain: %w", termCount, r.remaining(), ErrTruncated)
	}
	terms := make([]string, 0, termCount)
	for i := uint32(0); i < termCount; i++ {
		l, err := r.u32("term length")
		if err != nil {
			return nil, err
		}
		raw, err := r.bytes(int(l), "term")
		if err != nil {
			return nil, err
		}
		terms = append(terms, string(raw))
	}
	if err := r.checkCRC(start, "dictionary section"); err != nil {
		return nil, err
	}
	return terms, nil
}

func (r *reader) relationSection(i uint32) (db.BulkRelation, error) {
	var br db.BulkRelation
	start := r.off
	what := fmt.Sprintf("relation %d", i)
	nameLen, err := r.u32(what + " name length")
	if err != nil {
		return br, err
	}
	name, err := r.bytes(int(nameLen), what+" name")
	if err != nil {
		return br, err
	}
	arity, err := r.u32(what + " arity")
	if err != nil {
		return br, err
	}
	rows, err := r.u32(what + " row count")
	if err != nil {
		return br, err
	}
	if arity == 0 {
		return br, fmt.Errorf("snapshot: relation %q has arity 0: %w", name, ErrFormat)
	}
	if uint64(arity)*uint64(rows)*4 > uint64(r.remaining()) {
		return br, fmt.Errorf("snapshot: relation %q declares %d×%d IDs but only %d bytes remain: %w", name, arity, rows, r.remaining(), ErrTruncated)
	}
	cols := make([][]uint32, arity)
	for pos := range cols {
		raw, err := r.bytes(int(rows)*4, what+" column")
		if err != nil {
			return br, err
		}
		col := make([]uint32, rows)
		for j := range col {
			col[j] = binary.BigEndian.Uint32(raw[j*4:])
		}
		cols[pos] = col
	}
	if err := r.checkCRC(start, fmt.Sprintf("relation %q section", name)); err != nil {
		return br, err
	}
	return db.BulkRelation{Name: string(name), Rows: int(rows), Cols: cols}, nil
}
