package dsmcc

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"oddci/internal/mpegts"
)

// File is one named payload carried by the carousel.
type File struct {
	Name string
	Data []byte
}

// Carousel is the sender-side content model: a versioned set of files
// mapped onto DSM-CC modules. It produces both the byte-exact section
// stream for one cycle and the wire-byte Layout used for timing.
type Carousel struct {
	PID        uint16
	DownloadID uint32
	blockSize  int

	generation uint32
	moduleIDs  map[string]uint16
	versions   map[string]uint8
	hashes     map[string]ModuleHash
	changed    map[string]bool
	nextModule uint16
	files      []File            // sorted by module ID
	content    map[string][]byte // name → immutable payload of files
	noHashExt  bool
}

// NewCarousel returns an empty carousel transmitting on pid. blockSize 0
// selects DefaultBlockSize.
func NewCarousel(pid uint16, blockSize int) (*Carousel, error) {
	if blockSize == 0 {
		blockSize = DefaultBlockSize
	}
	if blockSize < 1 || blockSize > maxBlockSize {
		return nil, fmt.Errorf("dsmcc: block size %d out of range [1,%d]", blockSize, maxBlockSize)
	}
	return &Carousel{
		PID:       pid,
		blockSize: blockSize,
		moduleIDs: make(map[string]uint16),
		versions:  make(map[string]uint8),
		hashes:    make(map[string]ModuleHash),
		changed:   make(map[string]bool),
	}, nil
}

// SetHashExtension toggles the DII content-hash extension (on by
// default). Turning it off models a pre-hash head-end for
// mixed-version interop tests.
func (c *Carousel) SetHashExtension(on bool) { c.noHashExt = !on }

// Generation returns the current content generation (the DII transaction
// id). It starts at 0 (empty) and increments on every SetFiles.
func (c *Carousel) Generation() uint32 { return c.generation }

// BlockSize returns the configured DDB payload size.
func (c *Carousel) BlockSize() int { return c.blockSize }

// Files returns the current contents. The payloads are the carousel's
// own immutable buffers, shared with every delivery: callers must treat
// them as read-only.
func (c *Carousel) Files() []File { return c.files }

// SetFiles replaces the carousel contents. Module IDs are stable per
// name; versions bump when a file's content changes. The generation
// counter always increments, signalling receivers that the directory
// changed. The carousel keeps its own copy of every changed payload, so
// the caller may reuse or modify its slices afterwards without touching
// what is on air.
func (c *Carousel) SetFiles(files []File) error { return c.setOwned(c.own(files)) }

// own returns files with every payload in carousel-owned storage.
// Bytes equal to what is already on air under the same name keep that
// buffer; anything else is copied once into a capacity-clipped slice,
// so a receiver appending to a delivery can never write into it.
func (c *Carousel) own(files []File) []File {
	out := make([]File, len(files))
	for i, f := range files {
		data, ok := c.content[f.Name]
		if !ok || !bytes.Equal(data, f.Data) {
			data = append(make([]byte, 0, len(f.Data)), f.Data...)
		}
		out[i] = File{Name: f.Name, Data: data}
	}
	return out
}

// setOwned is SetFiles for payloads that already went through own.
func (c *Carousel) setOwned(files []File) error {
	seen := make(map[string]bool, len(files))
	for _, f := range files {
		if f.Name == "" || len(f.Name) > 255 {
			return fmt.Errorf("dsmcc: invalid file name %q", f.Name)
		}
		if seen[f.Name] {
			return fmt.Errorf("dsmcc: duplicate file %q", f.Name)
		}
		seen[f.Name] = true
		blocks := (len(f.Data) + c.blockSize - 1) / c.blockSize
		if blocks > 0xFFFF {
			return fmt.Errorf("dsmcc: file %q needs %d blocks, max 65535", f.Name, blocks)
		}
	}
	content := make(map[string][]byte, len(files))
	c.changed = make(map[string]bool)
	for _, f := range files {
		if _, ok := c.moduleIDs[f.Name]; !ok {
			c.moduleIDs[f.Name] = c.nextModule
			c.nextModule++
		}
		if prev, existed := c.content[f.Name]; !existed || !bytes.Equal(prev, f.Data) {
			if existed {
				c.versions[f.Name]++
			}
			// New files keep version 0 (map zero value).
			c.changed[f.Name] = true
			c.hashes[f.Name] = HashOf(f.Data)
		}
		content[f.Name] = f.Data
	}
	sorted := append([]File(nil), files...)
	sort.Slice(sorted, func(i, j int) bool {
		return c.moduleIDs[sorted[i].Name] < c.moduleIDs[sorted[j].Name]
	})
	c.files = sorted
	c.content = content
	c.generation++
	return nil
}

// file returns the named payload and its content hash (recorded even
// with the hash extension off). The bytes are shared and read-only.
func (c *Carousel) file(name string) ([]byte, ModuleHash, bool) {
	data, ok := c.content[name]
	return data, c.hashes[name], ok
}

// Changed returns the names whose content changed (or first appeared)
// in the most recent SetFiles — the delta a re-air needs to carry.
func (c *Carousel) Changed() []string {
	out := make([]string, 0, len(c.changed))
	for _, f := range c.files {
		if c.changed[f.Name] {
			out = append(out, f.Name)
		}
	}
	return out
}

// DII builds the current directory message.
func (c *Carousel) DII() *DII {
	d := &DII{
		TransactionID: c.generation,
		DownloadID:    c.DownloadID,
		BlockSize:     uint16(c.blockSize),
	}
	for _, f := range c.files {
		m := ModuleInfo{
			ID:      c.moduleIDs[f.Name],
			Version: c.versions[f.Name],
			Size:    uint32(len(f.Data)),
			Name:    f.Name,
		}
		if !c.noHashExt {
			m.Hash = c.hashes[f.Name]
		}
		d.Modules = append(d.Modules, m)
	}
	return d
}

// EncodeCycle emits the encoded sections of one full carousel cycle:
// the DII followed by every module's blocks in module order.
func (c *Carousel) EncodeCycle() ([][]byte, error) {
	if len(c.files) == 0 {
		return nil, errors.New("dsmcc: empty carousel")
	}
	dii, err := c.DII().Encode()
	if err != nil {
		return nil, err
	}
	out := [][]byte{dii}
	for _, f := range c.files {
		out, err = c.appendModuleSections(out, f)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// EncodeDeltaCycle emits the sections of one delta re-air: the full DII
// (directory plus content hashes) followed by the blocks of only those
// modules whose content changed in the last SetFiles. A hash-aware
// receiver with a warm chunk cache converges from this alone; a
// hash-unaware or cold receiver treats the unchanged modules as lost
// blocks and heals from the regular full cycles that follow.
func (c *Carousel) EncodeDeltaCycle() ([][]byte, error) {
	if len(c.files) == 0 {
		return nil, errors.New("dsmcc: empty carousel")
	}
	dii, err := c.DII().Encode()
	if err != nil {
		return nil, err
	}
	out := [][]byte{dii}
	for _, f := range c.files {
		if !c.changed[f.Name] {
			continue
		}
		out, err = c.appendModuleSections(out, f)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// appendModuleSections encodes one module's DDB run onto out.
func (c *Carousel) appendModuleSections(out [][]byte, f File) ([][]byte, error) {
	id := c.moduleIDs[f.Name]
	ver := c.versions[f.Name]
	for blk, off := 0, 0; off < len(f.Data) || (len(f.Data) == 0 && blk == 0); blk++ {
		end := off + c.blockSize
		if end > len(f.Data) {
			end = len(f.Data)
		}
		ddb := &DDB{
			DownloadID:  c.DownloadID,
			ModuleID:    id,
			Version:     ver,
			BlockNumber: uint16(blk),
			Data:        f.Data[off:end],
		}
		sec, err := ddb.Encode()
		if err != nil {
			return nil, err
		}
		out = append(out, sec)
		off = end
		if len(f.Data) == 0 {
			break
		}
	}
	return out, nil
}

// sectionWireBytes is the on-air cost of one section: full 188-byte TS
// packets, the first carrying a pointer field.
func sectionWireBytes(sectionLen int) int64 {
	// First packet holds 183 payload bytes (pointer field), the rest 184.
	if sectionLen <= mpegts.MaxPayload-1 {
		return mpegts.PacketSize
	}
	rest := sectionLen - (mpegts.MaxPayload - 1)
	pkts := 1 + (rest+mpegts.MaxPayload-1)/mpegts.MaxPayload
	return int64(pkts) * mpegts.PacketSize
}

// LayoutEntry records where one module's block run sits within a cycle,
// in wire bytes.
type LayoutEntry struct {
	Name      string
	ModuleID  uint16
	Version   uint8
	Size      int
	WireStart int64
	WireEnd   int64
	// Hash is the module's content address (zero with the hash
	// extension disabled).
	Hash ModuleHash
	// Changed marks modules whose content changed in the SetFiles this
	// layout was computed from — the delta re-air set.
	Changed bool
}

// Layout is the wire-byte schedule of one carousel cycle. Offset 0 is
// the start of the DII.
type Layout struct {
	Generation uint32
	CycleWire  int64
	// DIIWire is the on-air cost of the directory section alone; a
	// cache-warm receiver converges after hearing just this much.
	DIIWire int64
	// DeltaWire is the wire cost of one delta re-air (DII + changed
	// modules), and ChangedModules counts the modules it carries.
	DeltaWire      int64
	ChangedModules int
	Entries        []LayoutEntry
	byName         map[string]*LayoutEntry
}

// Layout computes the current cycle's schedule without encoding payload
// bytes (sizes are derived from the framing rules, so it matches
// EncodeCycle exactly; a test asserts this).
func (c *Carousel) Layout() (*Layout, error) {
	if len(c.files) == 0 {
		return nil, errors.New("dsmcc: empty carousel")
	}
	dii, err := c.DII().Encode()
	if err != nil {
		return nil, err
	}
	l := &Layout{Generation: c.generation, byName: make(map[string]*LayoutEntry)}
	pos := sectionWireBytes(len(dii))
	l.DIIWire = pos
	l.DeltaWire = pos
	for _, f := range c.files {
		e := LayoutEntry{
			Name:      f.Name,
			ModuleID:  c.moduleIDs[f.Name],
			Version:   c.versions[f.Name],
			Size:      len(f.Data),
			WireStart: pos,
			Changed:   c.changed[f.Name],
		}
		if !c.noHashExt {
			e.Hash = c.hashes[f.Name]
		}
		blocks := (len(f.Data) + c.blockSize - 1) / c.blockSize
		if blocks == 0 {
			blocks = 1
		}
		for b := 0; b < blocks; b++ {
			sz := c.blockSize
			if b == blocks-1 {
				sz = len(f.Data) - b*c.blockSize
			}
			secLen := 3 + 5 + ddbHeaderLen + sz + 4 // section framing + DDB header + data + CRC
			pos += sectionWireBytes(secLen)
		}
		e.WireEnd = pos
		if e.Changed {
			l.DeltaWire += pos - e.WireStart
			l.ChangedModules++
		}
		l.Entries = append(l.Entries, e)
		l.byName[f.Name] = &l.Entries[len(l.Entries)-1]
	}
	l.CycleWire = pos
	return l, nil
}

// Entry looks up a file's layout entry.
func (l *Layout) Entry(name string) (*LayoutEntry, bool) {
	e, ok := l.byName[name]
	return e, ok
}

// CycleDuration converts the cycle's wire bytes to air time at rateBps.
func (l *Layout) CycleDuration(rateBps float64) time.Duration {
	return time.Duration(float64(l.CycleWire) * 8 / rateBps * float64(time.Second))
}

// ReceiverStrategy selects how a receiver assembles a module from the
// cyclic stream.
type ReceiverStrategy int

const (
	// FileGranularity waits for the next transmission of the module that
	// starts after the receiver begins listening — the behaviour the
	// paper describes ("the access is delayed until the next data
	// retransmission for that particular file"), averaging 1.5 cycles
	// when one file dominates the carousel.
	FileGranularity ReceiverStrategy = iota
	// BlockCache caches blocks from the moment the receiver starts
	// listening, accepting an out-of-order tail + head; it completes in
	// at most one full cycle.
	BlockCache
)

// NextCompletion computes, in wire bytes since cycle origin, when a
// receiver that starts listening at byte position pos will have fully
// assembled the named module. The second return is false if the file is
// not in the carousel.
func (l *Layout) NextCompletion(name string, pos int64, strategy ReceiverStrategy) (int64, bool) {
	e, ok := l.byName[name]
	if !ok {
		return 0, false
	}
	w := l.CycleWire
	k := pos / w
	inCycle := pos - k*w
	switch strategy {
	case BlockCache:
		if inCycle > e.WireStart && inCycle < e.WireEnd {
			// Mid-module: tail this cycle, missed head next cycle.
			return pos + w, true
		}
		fallthrough
	default:
		// Next instance whose start is ≥ pos.
		if inCycle <= e.WireStart {
			return k*w + e.WireEnd, true
		}
		return (k+1)*w + e.WireEnd, true
	}
}
