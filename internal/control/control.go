// Package control defines the OddCI control-plane messages and their
// deterministic binary wire format: the broadcast wakeup/reset messages
// (ed25519-signed by the Controller, since "the PNA are configured to
// only accept messages broadcast by their associated Controller"), and
// the direct-channel heartbeat exchange.
package control

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/core/instance"
)

// MsgType tags an envelope.
type MsgType uint8

// Broadcast message types.
const (
	MsgWakeup MsgType = 1
	MsgReset  MsgType = 2
)

// Wakeup commands idle, compliant PNAs to join an instance.
type Wakeup struct {
	// InstanceID names the OddCI instance being built or recomposed.
	InstanceID instance.ID
	// Seq increments per (re)transmission of wakeups for this instance,
	// so a PNA evaluates each retransmission's probability draw once.
	Seq uint32
	// Probability is the chance an idle PNA handles this message — the
	// Provider's instrument for sizing instances on a population much
	// larger than the target size.
	Probability float64
	// Requirements filter which devices may join.
	Requirements instance.Requirements
	// ImageFile is the carousel file carrying the application image.
	ImageFile string
	// ImageDigest authenticates the image content.
	ImageDigest appimage.Digest
	// HeartbeatPeriod tells the PNA how often to report, letting the
	// Controller bound its own heartbeat load.
	HeartbeatPeriod time.Duration
	// Lifetime, if positive, auto-dismantles the DVE after this long.
	Lifetime time.Duration
}

// Reset dismantles an instance ("the Controller may also broadcast
// reset messages to destroy an OddCI instance"). InstanceID 0 resets
// every instance.
type Reset struct {
	InstanceID instance.ID
	Seq        uint32
}

func (w *Wakeup) encode() ([]byte, error) {
	if w.Probability < 0 || w.Probability > 1 || math.IsNaN(w.Probability) {
		return nil, fmt.Errorf("control: probability %v out of [0,1]", w.Probability)
	}
	if len(w.ImageFile) > 255 {
		return nil, errors.New("control: image file name too long")
	}
	if w.HeartbeatPeriod < 0 || w.Lifetime < 0 {
		return nil, errors.New("control: negative durations")
	}
	b := make([]byte, 0, 96+len(w.ImageFile))
	b = binary.BigEndian.AppendUint64(b, uint64(w.InstanceID))
	b = binary.BigEndian.AppendUint32(b, w.Seq)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(w.Probability))
	b = w.Requirements.Encode(b)
	b = append(b, byte(len(w.ImageFile)))
	b = append(b, w.ImageFile...)
	b = append(b, w.ImageDigest[:]...)
	b = binary.BigEndian.AppendUint64(b, uint64(w.HeartbeatPeriod))
	b = binary.BigEndian.AppendUint64(b, uint64(w.Lifetime))
	return b, nil
}

func decodeWakeup(b []byte) (*Wakeup, error) {
	if len(b) < 21 {
		return nil, errors.New("control: truncated wakeup")
	}
	w := &Wakeup{
		InstanceID:  instance.ID(binary.BigEndian.Uint64(b)),
		Seq:         binary.BigEndian.Uint32(b[8:]),
		Probability: math.Float64frombits(binary.BigEndian.Uint64(b[12:])),
	}
	var err error
	w.Requirements, b, err = instance.DecodeRequirements(b[20:])
	if err != nil {
		return nil, err
	}
	if len(b) < 1 {
		return nil, errors.New("control: truncated wakeup image name")
	}
	nameLen := int(b[0])
	b = b[1:]
	if len(b) < nameLen+len(w.ImageDigest)+16 {
		return nil, errors.New("control: truncated wakeup tail")
	}
	w.ImageFile = string(b[:nameLen])
	b = b[nameLen:]
	copy(w.ImageDigest[:], b)
	b = b[len(w.ImageDigest):]
	w.HeartbeatPeriod = time.Duration(binary.BigEndian.Uint64(b))
	w.Lifetime = time.Duration(binary.BigEndian.Uint64(b[8:]))
	if w.Probability < 0 || w.Probability > 1 || math.IsNaN(w.Probability) {
		return nil, errors.New("control: decoded probability out of range")
	}
	return w, nil
}

func (r *Reset) encode() []byte {
	b := make([]byte, 0, 12)
	b = binary.BigEndian.AppendUint64(b, uint64(r.InstanceID))
	b = binary.BigEndian.AppendUint32(b, r.Seq)
	return b
}

func decodeReset(b []byte) (*Reset, error) {
	if len(b) < 12 {
		return nil, errors.New("control: truncated reset")
	}
	return &Reset{
		InstanceID: instance.ID(binary.BigEndian.Uint64(b)),
		Seq:        binary.BigEndian.Uint32(b[8:]),
	}, nil
}

// Envelope framing: type(1) | payloadLen(4) | payload | signature(64).

// SignWakeup encodes and signs a wakeup envelope.
func SignWakeup(w *Wakeup, key ed25519.PrivateKey) ([]byte, error) {
	payload, err := w.encode()
	if err != nil {
		return nil, err
	}
	return seal(MsgWakeup, payload, key), nil
}

// SignReset encodes and signs a reset envelope.
func SignReset(r *Reset, key ed25519.PrivateKey) ([]byte, error) {
	return seal(MsgReset, r.encode(), key), nil
}

func seal(t MsgType, payload []byte, key ed25519.PrivateKey) []byte {
	b := make([]byte, 0, 5+len(payload)+ed25519.SignatureSize)
	b = append(b, byte(t))
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	sig := ed25519.Sign(key, b)
	return append(b, sig...)
}

// ErrBadSignature reports an envelope whose signature does not verify —
// a PNA drops such messages silently.
var ErrBadSignature = errors.New("control: bad signature")

// OpenAll parses a concatenation of signed envelopes — the control file
// a Controller managing several concurrent instances broadcasts. Any
// invalid envelope poisons the whole file (a PNA must not act on a
// partially forged message set).
//
// Every node reads the same aired file, so OpenAll remembers the last
// few files that opened cleanly, each as a private copy together with a
// copy of the key that verified it. A candidate byte-equal to a
// remembered file, under an equal key, skips the signature checks (it
// is still parsed and decoded afresh): equal bytes carry equal
// signatures over equal bodies, so the shortcut is exactly as strong as
// verifying. The match compares bytes, never slice identity, so a
// buffer modified after it passed, a tampered copy or another key
// misses and takes the full check.
func OpenAll(raw []byte, pub ed25519.PublicKey) ([]any, error) {
	hit := opened.has(raw, pub)
	msgs, err := openAll(raw, pub, !hit)
	if err == nil && !hit {
		opened.add(raw, pub)
	}
	return msgs, err
}

func openAll(raw []byte, pub ed25519.PublicKey, verify bool) ([]any, error) {
	var msgs []any
	for len(raw) > 0 {
		if len(raw) < 5+ed25519.SignatureSize {
			return nil, errors.New("control: truncated envelope in sequence")
		}
		plen := int(binary.BigEndian.Uint32(raw[1:]))
		total := 5 + plen + ed25519.SignatureSize
		if total > len(raw) {
			return nil, errors.New("control: envelope overruns file")
		}
		m, err := open(raw[:total], pub, verify)
		if err != nil {
			return nil, err
		}
		msgs = append(msgs, m)
		raw = raw[total:]
	}
	return msgs, nil
}

// Open verifies an envelope against the Controller's public key and
// returns the decoded message (*Wakeup or *Reset).
func Open(raw []byte, pub ed25519.PublicKey) (any, error) { return open(raw, pub, true) }

// open decodes one envelope, checking its signature when verify is set.
func open(raw []byte, pub ed25519.PublicKey, verify bool) (any, error) {
	if len(raw) < 5+ed25519.SignatureSize {
		return nil, errors.New("control: truncated envelope")
	}
	body := raw[:len(raw)-ed25519.SignatureSize]
	sig := raw[len(raw)-ed25519.SignatureSize:]
	if verify && !ed25519.Verify(pub, body, sig) {
		return nil, ErrBadSignature
	}
	t := MsgType(body[0])
	plen := int(binary.BigEndian.Uint32(body[1:]))
	if 5+plen != len(body) {
		return nil, errors.New("control: envelope length mismatch")
	}
	payload := body[5:]
	switch t {
	case MsgWakeup:
		return decodeWakeup(payload)
	case MsgReset:
		return decodeReset(payload)
	default:
		return nil, fmt.Errorf("control: unknown message type %d", t)
	}
}

// Bounds of the OpenAll memo: a few distinct control files (the current
// one and its recent predecessors), and never more than this many bytes
// of copies; larger files are not remembered.
const (
	memoEntries = 8
	memoBytes   = 1 << 20
)

// opened is the process-wide OpenAll memo.
var opened openMemo

type openMemo struct {
	mu      sync.Mutex
	entries []memoEntry // most recent first; replaced, never written in place
}

type memoEntry struct {
	pub ed25519.PublicKey // private copies of what passed; never handed out
	raw []byte
}

// has reports whether raw is byte-equal to a remembered file that
// opened cleanly under a key equal to pub.
func (m *openMemo) has(raw []byte, pub ed25519.PublicKey) bool {
	m.mu.Lock()
	entries := m.entries
	m.mu.Unlock()
	for _, e := range entries {
		if bytes.Equal(e.raw, raw) && bytes.Equal(e.pub, pub) {
			return true
		}
	}
	return false
}

// add remembers private copies of raw and pub, evicting the oldest
// entries to stay within the bounds.
func (m *openMemo) add(raw []byte, pub ed25519.PublicKey) {
	if len(raw) > memoBytes {
		return
	}
	e := memoEntry{pub: bytes.Clone(pub), raw: bytes.Clone(raw)}
	m.mu.Lock()
	defer m.mu.Unlock()
	next := make([]memoEntry, 1, memoEntries)
	next[0] = e
	size := len(e.raw)
	for _, old := range m.entries {
		if len(next) == memoEntries || size+len(old.raw) > memoBytes {
			break
		}
		if !bytes.Equal(old.raw, raw) || !bytes.Equal(old.pub, pub) {
			next = append(next, old)
			size += len(old.raw)
		}
	}
	m.entries = next
}
