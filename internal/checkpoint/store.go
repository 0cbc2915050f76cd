package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// WriteFileAtomic writes data to path crash-consistently: the bytes go
// to a temporary file in the same directory, are fsynced, and the temp
// file is renamed over path; finally the directory is fsynced so the
// rename itself survives a crash. A reader therefore sees either the
// old file or the complete new file — never a prefix (and if the disk
// tears the write anyway, the CRC trailer catches it on load).
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: create temp: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: write temp: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: fsync temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close temp: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync() // best effort; not all filesystems support dir fsync
		d.Close()
	}
	return nil
}

// Store manages a directory of numbered checkpoint files
// (ckpt-<seq>.twig) with keep-last-K retention. Sequence numbers are
// the caller's (typically the simulated interval at which the
// checkpoint was taken), so a restored run resumes numbering where the
// crashed one left off.
type Store struct {
	dir      string
	keep     int
	onReject func(path string, err error)
}

// SetRejectHook registers fn to be invoked for every candidate file
// ReadLatest skips because it failed to read or verify — a torn write,
// a bit flip, a version skew. The daemon uses it to log the rejected
// filename and count the fallback in twigd_checkpoint_corrupt_total
// instead of silently walking past corruption. fn must not call back
// into the store.
func (s *Store) SetRejectHook(fn func(path string, err error)) { s.onReject = fn }

// filePattern names store-managed checkpoint files; %012d keeps
// lexicographic order equal to numeric order below 10¹², and wider
// numbers print in full.
const filePattern = "ckpt-%012d.twig"

// parseFileName returns the sequence a store-managed file name holds:
// the name is what filePattern prints for it — at least twelve digits,
// no leading zero beyond the padding to twelve.
func parseFileName(name string) (uint64, bool) {
	digits, ok := strings.CutPrefix(name, "ckpt-")
	if !ok {
		return 0, false
	}
	if digits, ok = strings.CutSuffix(digits, ".twig"); !ok || len(digits) < 12 || len(digits) > 12 && digits[0] == '0' {
		return 0, false
	}
	seq, err := strconv.ParseUint(digits, 10, 64) // digits only: no sign, no underscore
	if err != nil {
		return 0, false
	}
	return seq, true
}

// NewStore opens (creating if needed) a checkpoint directory retaining
// the newest keep files. keep < 1 is treated as 1: the newest
// checkpoint is never pruned.
func NewStore(dir string, keep int) (*Store, error) {
	if keep < 1 {
		keep = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create dir: %w", err)
	}
	return &Store{dir: dir, keep: keep}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Save atomically writes data as checkpoint seq and prunes files beyond
// the retention limit (oldest first, and never the file just written).
func (s *Store) Save(seq uint64, data []byte) error {
	path := filepath.Join(s.dir, fmt.Sprintf(filePattern, seq))
	if err := WriteFileAtomic(path, data); err != nil {
		return err
	}
	seqs, err := s.Sequences()
	if err != nil {
		return nil // written fine; pruning is best-effort
	}
	for len(seqs) > s.keep {
		old := seqs[0]
		seqs = seqs[1:]
		if old == seq {
			continue
		}
		_ = os.Remove(filepath.Join(s.dir, fmt.Sprintf(filePattern, old)))
	}
	return nil
}

// Sequences lists the sequence numbers of files present in the store,
// ascending. Files not matching the naming scheme are ignored.
func (s *Store) Sequences() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read dir: %w", err)
	}
	var seqs []uint64
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		if seq, ok := parseFileName(ent.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	return seqs, nil
}

// Path returns the file path for sequence seq.
func (s *Store) Path(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf(filePattern, seq))
}

// ReadLatest returns the sequence number and raw bytes of the newest
// checkpoint whose container framing verifies (magic, version, CRC).
// Candidates are tried newest-first, and a file that fails to read or
// verify — a torn write, a bit flip, a version skew — is skipped for the
// next older one: the torn-write fallback. The caller decodes the
// sections it wants from the bytes (a restore all of them, a hot reload
// only the manager's). Returns os.ErrNotExist when the directory holds
// no checkpoint files at all, and a combined error when files exist but
// none verifies.
func (s *Store) ReadLatest() (uint64, []byte, error) {
	seqs, err := s.Sequences()
	if err != nil {
		return 0, nil, err
	}
	if len(seqs) == 0 {
		return 0, nil, fmt.Errorf("checkpoint: no checkpoints in %s: %w", s.dir, os.ErrNotExist)
	}
	var firstErr error
	for i := len(seqs) - 1; i >= 0; i-- {
		seq := seqs[i]
		data, err := os.ReadFile(s.Path(seq))
		if err == nil {
			err = Verify(data)
		}
		if err == nil {
			return seq, data, nil
		}
		if s.onReject != nil {
			s.onReject(s.Path(seq), err)
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("checkpoint %s: %w", s.Path(seq), err)
		}
	}
	return 0, nil, fmt.Errorf("checkpoint: no valid checkpoint in %s (newest failure: %w)", s.dir, firstErr)
}
