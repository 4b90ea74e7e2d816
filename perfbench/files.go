package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"laminar"
	"laminar/internal/difc"
	"laminar/internal/kernel"
)

// The file-churn workload is the kernel and LSM write and read path. A
// request is one fixed cycle: raise the task's secrecy label to a tag
// from a pool minted in set-up, create a file in that tag's labeled
// directory, write 4 KiB, read it back, unlink the directory's oldest
// file, and restore the empty label. Every cycle bumps the task's label
// epoch twice and creates an inode, so a cache keyed on stable labels
// shows its cost here. The tag count and the live file count stay
// constant: each directory always holds fcPerDir files.
const (
	fcTags     = 16
	fcPerDir   = 8
	fcFileSize = 4096
	fcPayloads = 64
)

var fileChurnSizes = map[string]int{
	"tags": fcTags, "live_files_per_tag": fcPerDir, "file_bytes": fcFileSize, "payloads": fcPayloads,
}

type churnFile struct{ seq, payload int }

type fileChurnWL struct {
	k        *kernel.Kernel
	t        *kernel.Task
	tags     [fcTags]difc.Label
	dirs     [fcTags]string
	live     [fcTags][fcPerDir]churnFile // a ring per directory
	oldest   [fcTags]int
	seq      int
	payloads [fcPayloads][]byte // what is written
	want     [fcPayloads][]byte // the model: what must be read back
	buf      []byte
	rng      *rand.Rand
	h        digest
}

func newFileChurn(seed int64) (workload, error) {
	k := laminar.NewSystem().Kernel()
	t, err := k.Spawn(k.InitTask(), []kernel.Capability{})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	w := &fileChurnWL{k: k, t: t, buf: make([]byte, fcFileSize), rng: rng}
	for i := range w.payloads {
		w.payloads[i] = make([]byte, fcFileSize)
		rng.Read(w.payloads[i])
		w.want[i] = bytes.Clone(w.payloads[i])
	}
	for d := range w.tags {
		tag, err := k.AllocTag(t)
		if err != nil {
			return nil, err
		}
		w.tags[d] = difc.NewLabel(tag)
		w.dirs[d] = fmt.Sprintf("/tmp/c%02d", d)
		if err := k.MkdirLabeled(t, w.dirs[d], 0o700, difc.Labels{S: w.tags[d]}); err != nil {
			return nil, fmt.Errorf("mkdir %s: %w", w.dirs[d], err)
		}
		if err := k.SetTaskLabel(t, kernel.Secrecy, w.tags[d]); err != nil {
			return nil, err
		}
		for i := range w.live[d] {
			f := churnFile{w.seq, rng.Intn(fcPayloads)}
			w.seq++
			if err := createFile(k, t, w.path(d, f.seq), w.payloads[f.payload]); err != nil {
				return nil, err
			}
			w.live[d][i] = f
		}
		if err := k.SetTaskLabel(t, kernel.Secrecy, difc.EmptyLabel); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *fileChurnWL) path(d, seq int) string { return w.dirs[d] + "/f" + strconv.Itoa(seq) }

func (w *fileChurnWL) step(tr *tracer) (bool, error) {
	d := w.rng.Intn(fcTags)
	f := churnFile{w.seq, w.rng.Intn(fcPayloads)}
	w.seq++
	w.h.add(uint64(d), uint64(f.seq), uint64(f.payload))
	path, oldPath := w.path(d, f.seq), w.path(d, w.live[d][w.oldest[d]].seq)
	k, t := w.k, w.t

	s := tr.begin()
	err := k.SetTaskLabel(t, kernel.Secrecy, w.tags[d])
	tr.end(spSetTaskLabel, s)
	if err != nil {
		return false, nil
	}
	ok := w.create(tr, path, w.payloads[f.payload]) &&
		readFile(k, tr, t, path, w.buf, w.want[f.payload])
	s = tr.begin()
	err = k.Unlink(t, oldPath)
	tr.end(spUnlink, s)
	ok = ok && err == nil
	s = tr.begin()
	err = k.SetTaskLabel(t, kernel.Secrecy, difc.EmptyLabel)
	tr.end(spSetTaskLabel, s)
	w.live[d][w.oldest[d]] = f
	w.oldest[d] = (w.oldest[d] + 1) % fcPerDir
	return ok && err == nil, nil
}

// create makes path at the task's labels and writes data into it.
func (w *fileChurnWL) create(tr *tracer, path string, data []byte) bool {
	s := tr.begin()
	fd, err := w.k.Open(w.t, path, kernel.OCreate|kernel.OWrite)
	tr.end(spCreate, s)
	if err != nil {
		return false
	}
	s = tr.begin()
	n, err := w.k.Write(w.t, fd, data)
	tr.end(spWrite, s)
	s = tr.begin()
	cerr := w.k.Close(w.t, fd)
	tr.end(spClose, s)
	return err == nil && cerr == nil && n == len(data)
}

func (w *fileChurnWL) read(c *counters) { c[cHooks] = w.k.HookCalls() }

// corrupt flips a byte in the model of every payload.
func (w *fileChurnWL) corrupt() {
	for _, data := range w.want {
		data[0] ^= 0xff
	}
}

// verify checks that each directory lists exactly the model's live files
// and that each holds its payload.
func (w *fileChurnWL) verify() error {
	for d := range w.dirs {
		if err := w.k.SetTaskLabel(w.t, kernel.Secrecy, w.tags[d]); err != nil {
			return err
		}
		names, err := w.k.ReadDir(w.t, w.dirs[d])
		if err != nil {
			return err
		}
		var want []string
		for _, f := range w.live[d] {
			want = append(want, "f"+strconv.Itoa(f.seq))
			if !readFile(w.k, untraced, w.t, w.path(d, f.seq), w.buf, w.want[f.payload]) {
				return fmt.Errorf("%s does not hold the bytes the model wrote", w.path(d, f.seq))
			}
		}
		slices.Sort(names)
		slices.Sort(want)
		if !slices.Equal(names, want) {
			return fmt.Errorf("%s lists %v, model %v", w.dirs[d], names, want)
		}
		if err := w.k.SetTaskLabel(w.t, kernel.Secrecy, difc.EmptyLabel); err != nil {
			return err
		}
	}
	return nil
}

func (w *fileChurnWL) trail() uint64 { return uint64(w.h) }

func (w *fileChurnWL) close() {}

// createFile creates path as t, at t's labels, holding data.
func createFile(k *kernel.Kernel, t *kernel.Task, path string, data []byte) error {
	fd, err := k.Open(t, path, kernel.OCreate|kernel.OWrite)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	n, err := k.Write(t, fd, data)
	if cerr := k.Close(t, fd); err == nil {
		err = cerr
	}
	if err == nil && n != len(data) {
		err = fmt.Errorf("short write: %d of %d bytes", n, len(data))
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// readFile opens, reads and closes path as t, and reports whether it
// holds exactly want.
func readFile(k *kernel.Kernel, tr *tracer, t *kernel.Task, path string, buf, want []byte) bool {
	s := tr.begin()
	fd, err := k.Open(t, path, kernel.ORead)
	tr.end(spOpen, s)
	if err != nil {
		return false
	}
	s = tr.begin()
	n, err := k.Read(t, fd, buf)
	tr.end(spRead, s)
	s = tr.begin()
	cerr := k.Close(t, fd)
	tr.end(spClose, s)
	return err == nil && cerr == nil && bytes.Equal(buf[:n], want)
}
