package snapshot_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wdpt/internal/db"
	"wdpt/internal/db/snapshot"
)

// makeDB builds a small sealed database with two relations and enough
// distinct constants that canonical ID assignment actually reorders
// something (constants are inserted out of sorted order).
func makeDB(t *testing.T) *db.Database {
	t.Helper()
	d := db.New()
	d.Insert("edge", "zeta", "alpha")
	d.Insert("edge", "mike", "zeta")
	d.Insert("edge", "alpha", "mike")
	d.Insert("label", "zeta", "end", "red")
	d.Insert("label", "alpha", "start", "blue")
	d.Seal()
	return d
}

func TestRoundTrip(t *testing.T) {
	src := makeDB(t)
	data, err := snapshot.Encode(src)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := snapshot.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.String() != src.String() {
		t.Errorf("decoded database differs:\n got:\n%s\nwant:\n%s", got.String(), src.String())
	}
	if !got.Dict().Sorted() {
		t.Error("decoded dictionary is not canonical")
	}
	if !got.Contains("edge", "zeta", "alpha") || got.Contains("edge", "alpha", "zeta") {
		t.Error("membership wrong after decode")
	}
	// A second encode of the decoded database must be byte-identical: the
	// format is canonical for a sealed database.
	data2, err := snapshot.Encode(got)
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if string(data2) != string(data) {
		t.Error("re-encode is not byte-identical")
	}
}

func TestEncodeRequiresSealed(t *testing.T) {
	d := db.New()
	d.Insert("r", "zzz")
	d.Insert("r", "aaa") // unsorted intern order, never sealed
	if _, err := snapshot.Encode(d); err == nil {
		t.Fatal("Encode accepted an unsealed database")
	}
	d.Seal()
	if _, err := snapshot.Encode(d); err != nil {
		t.Fatalf("Encode after Seal: %v", err)
	}
}

func TestEmptyDatabaseRoundTrip(t *testing.T) {
	d := db.New()
	d.Seal()
	data, err := snapshot.Encode(d)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := snapshot.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Size() != 0 || len(got.Relations()) != 0 {
		t.Fatalf("decoded empty database has size %d, %d relations", got.Size(), len(got.Relations()))
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.snap")
	src := makeDB(t)
	if err := snapshot.Write(path, src); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := snapshot.Read(path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.String() != src.String() {
		t.Errorf("Read mismatch:\n got:\n%s\nwant:\n%s", got.String(), src.String())
	}
	// Overwriting an existing snapshot must work and leave no temp files.
	if err := snapshot.Write(path, src); err != nil {
		t.Fatalf("second Write: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(entries) != 1 || entries[0].Name() != "data.snap" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("directory holds %v, want only data.snap", names)
	}
}

func TestReadMissingFile(t *testing.T) {
	_, err := snapshot.Read(filepath.Join(t.TempDir(), "absent.snap"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Read of missing file: %v, want fs.ErrNotExist", err)
	}
}

// --- crafted payloads -------------------------------------------------------

// rawRel is a hand-built relation section for corruption tests.
type rawRel struct {
	name  string
	arity uint32
	rows  uint32
	ids   []uint32 // column-major, arity*rows values
}

// rawSnapshot assembles a snapshot with correct CRCs from raw parts,
// mirroring the writer so tests can produce semantically invalid but
// checksum-clean files.
func rawSnapshot(version uint32, terms []string, rels []rawRel) []byte {
	be := binary.BigEndian.AppendUint32
	buf := append([]byte(nil), "WDPTSNAP"...)
	buf = be(buf, version)
	buf = be(buf, uint32(len(rels)))
	start := len(buf)
	buf = be(buf, uint32(len(terms)))
	for _, s := range terms {
		buf = be(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	buf = be(buf, crc32.ChecksumIEEE(buf[start:]))
	for _, r := range rels {
		start = len(buf)
		buf = be(buf, uint32(len(r.name)))
		buf = append(buf, r.name...)
		buf = be(buf, r.arity)
		buf = be(buf, r.rows)
		for _, id := range r.ids {
			buf = be(buf, id)
		}
		buf = be(buf, crc32.ChecksumIEEE(buf[start:]))
	}
	sum := crc32.ChecksumIEEE(buf)
	buf = append(buf, "WSNAPEND"...)
	return be(buf, sum)
}

func TestErrorTaxonomy(t *testing.T) {
	valid := rawSnapshot(1, []string{"a", "b"}, []rawRel{{name: "r", arity: 2, rows: 1, ids: []uint32{0, 1}}})
	if _, err := snapshot.Decode(valid); err != nil {
		t.Fatalf("rawSnapshot builder produces undecodable bytes: %v", err)
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, snapshot.ErrTruncated},
		{"magic prefix only", []byte("WDPT"), snapshot.ErrTruncated},
		{"wrong magic", []byte("NOTASNAP00000000000000000000000000000000"), snapshot.ErrBadMagic},
		{"header only", valid[:16], snapshot.ErrTruncated},
		{"future version", rawSnapshot(2, nil, nil), snapshot.ErrVersion},
		{"missing footer", valid[:len(valid)-12], snapshot.ErrTruncated},
		{"payload bit flip", flipped, snapshot.ErrChecksum},
		{"unsorted terms", rawSnapshot(1, []string{"b", "a"}, nil), snapshot.ErrFormat},
		{"duplicate terms", rawSnapshot(1, []string{"a", "a"}, nil), snapshot.ErrFormat},
		{"id out of range", rawSnapshot(1, []string{"a"}, []rawRel{{name: "r", arity: 1, rows: 1, ids: []uint32{5}}}), snapshot.ErrFormat},
		{"zero arity", rawSnapshot(1, []string{"a"}, []rawRel{{name: "r", arity: 0, rows: 0}}), snapshot.ErrFormat},
		{"duplicate rows", rawSnapshot(1, []string{"a"}, []rawRel{{name: "r", arity: 1, rows: 2, ids: []uint32{0, 0}}}), snapshot.ErrFormat},
		{"duplicate relation", rawSnapshot(1, []string{"a"}, []rawRel{
			{name: "r", arity: 1, rows: 1, ids: []uint32{0}},
			{name: "r", arity: 1, rows: 1, ids: []uint32{0}},
		}), snapshot.ErrFormat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := snapshot.Decode(tc.data)
			if d != nil {
				t.Fatalf("Decode returned a database alongside the expected failure")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Decode error = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestCountBombsRejected feeds headers whose declared counts vastly exceed
// the file size; the decoder must reject them cheaply (typed error) rather
// than allocating gigabytes.
func TestCountBombsRejected(t *testing.T) {
	be := binary.BigEndian.AppendUint32
	// Huge term count.
	buf := append([]byte(nil), "WDPTSNAP"...)
	buf = be(buf, 1)          // version
	buf = be(buf, 0)          // relCount
	buf = be(buf, 0x7fffffff) // termCount bomb
	sum := crc32.ChecksumIEEE(buf)
	buf = append(buf, "WSNAPEND"...)
	buf = be(buf, sum)
	if _, err := snapshot.Decode(buf); !errors.Is(err, snapshot.ErrTruncated) {
		t.Errorf("term-count bomb: %v, want ErrTruncated", err)
	}

	// Huge relation count.
	buf = append([]byte(nil), "WDPTSNAP"...)
	buf = be(buf, 1)
	buf = be(buf, 0x7fffffff) // relCount bomb
	start := len(buf)
	buf = be(buf, 0) // empty dict
	buf = be(buf, crc32.ChecksumIEEE(buf[start:]))
	sum = crc32.ChecksumIEEE(buf)
	buf = append(buf, "WSNAPEND"...)
	buf = be(buf, sum)
	if _, err := snapshot.Decode(buf); !errors.Is(err, snapshot.ErrTruncated) {
		t.Errorf("rel-count bomb: %v, want ErrTruncated", err)
	}

	// Huge row count inside an otherwise plausible relation.
	buf = append([]byte(nil), "WDPTSNAP"...)
	buf = be(buf, 1)
	buf = be(buf, 1)
	start = len(buf)
	buf = be(buf, 1)
	buf = be(buf, 1)
	buf = append(buf, 'a')
	buf = be(buf, crc32.ChecksumIEEE(buf[start:]))
	start = len(buf)
	buf = be(buf, 1)
	buf = append(buf, 'r')
	buf = be(buf, 0xffffffff) // arity bomb
	buf = be(buf, 0xffffffff) // rows bomb
	buf = be(buf, crc32.ChecksumIEEE(buf[start:]))
	sum = crc32.ChecksumIEEE(buf)
	buf = append(buf, "WSNAPEND"...)
	buf = be(buf, sum)
	if _, err := snapshot.Decode(buf); !errors.Is(err, snapshot.ErrTruncated) {
		t.Errorf("row-count bomb: %v, want ErrTruncated", err)
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	// Splice garbage between the last section and the footer, then refit
	// the whole-file CRC so only the structural check can object.
	valid := rawSnapshot(1, []string{"a"}, nil)
	body := valid[:len(valid)-12]
	body = append(append([]byte(nil), body...), 0xde, 0xad)
	sum := crc32.ChecksumIEEE(body)
	body = append(body, "WSNAPEND"...)
	body = binary.BigEndian.AppendUint32(body, sum)
	if _, err := snapshot.Decode(body); !errors.Is(err, snapshot.ErrFormat) && !errors.Is(err, snapshot.ErrTruncated) {
		t.Fatalf("trailing bytes: %v, want ErrFormat or ErrTruncated", err)
	}
}

func TestParityWithTextParse(t *testing.T) {
	// A database round-tripped through the snapshot must render exactly
	// the text it parsed from (modulo line ordering, which String sorts).
	src := makeDB(t)
	data, err := snapshot.Encode(src)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := snapshot.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !strings.Contains(got.String(), "edge(zeta, alpha)") {
		t.Fatalf("decoded database lost a tuple:\n%s", got.String())
	}
}
