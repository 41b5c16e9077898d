// Package appimage defines the application-image format staged to
// processing nodes through the broadcast channel: a manifest (name,
// version, entry point) plus the payload, with a SHA-256 digest binding
// the two. The wakeup control message references an image by digest so
// a PNA can verify what the carousel delivered before executing it.
package appimage

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Image is one deployable application.
type Image struct {
	// Name labels the application.
	Name string
	// Version distinguishes successive deployments.
	Version uint32
	// EntryPoint names the application behaviour to run inside the DVE
	// (resolved against the node's registry — the substitution for
	// executing shipped binaries).
	EntryPoint string
	// Payload is the application body staged over broadcast; for the
	// simulator its size is what matters, for demos it can carry real
	// content (e.g. an encoded BLAST database).
	Payload []byte
}

const magic = 0x0DDC1136

// Encode serializes the image into its canonical wire form.
func (im *Image) Encode() ([]byte, error) {
	if len(im.Name) > 255 || len(im.EntryPoint) > 255 {
		return nil, errors.New("appimage: name or entry point too long")
	}
	b := make([]byte, 0, 16+len(im.Name)+len(im.EntryPoint)+len(im.Payload))
	b = binary.BigEndian.AppendUint32(b, magic)
	b = binary.BigEndian.AppendUint32(b, im.Version)
	b = append(b, byte(len(im.Name)))
	b = append(b, im.Name...)
	b = append(b, byte(len(im.EntryPoint)))
	b = append(b, im.EntryPoint...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(im.Payload)))
	b = append(b, im.Payload...)
	return b, nil
}

// Decode parses an encoded image. The returned Payload aliases raw, so
// raw must outlive the image and must not be modified while the image is
// in use; images decoded from a broadcast delivery share the carousel's
// read-only buffer.
func Decode(raw []byte) (*Image, error) {
	if len(raw) < 10 {
		return nil, errors.New("appimage: truncated")
	}
	if binary.BigEndian.Uint32(raw) != magic {
		return nil, errors.New("appimage: bad magic")
	}
	im := &Image{Version: binary.BigEndian.Uint32(raw[4:])}
	b := raw[8:]
	nameLen := int(b[0])
	b = b[1:]
	if len(b) < nameLen+1 {
		return nil, errors.New("appimage: truncated name")
	}
	im.Name = string(b[:nameLen])
	b = b[nameLen:]
	epLen := int(b[0])
	b = b[1:]
	if len(b) < epLen+4 {
		return nil, errors.New("appimage: truncated entry point")
	}
	im.EntryPoint = string(b[:epLen])
	b = b[epLen:]
	plen := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if len(b) != plen {
		return nil, fmt.Errorf("appimage: payload length %d, header says %d", len(b), plen)
	}
	im.Payload = b
	return im, nil
}

// Digest is a SHA-256 over the canonical encoding.
type Digest [sha256.Size]byte

// Digest computes the image's content digest.
func (im *Image) Digest() (Digest, error) {
	raw, err := im.Encode()
	if err != nil {
		return Digest{}, err
	}
	return sha256.Sum256(raw), nil
}

// DigestOf hashes an already-encoded image.
func DigestOf(raw []byte) Digest { return sha256.Sum256(raw) }

// Verify checks raw against an expected digest and decodes it.
//
// A broadcast delivers the same image to every node, so Verify
// remembers the last few encodings that passed, each as a private copy
// together with its digest. A candidate byte-equal to a remembered copy
// and checked against the same digest skips the re-hash: equal bytes
// have equal digests, so the shortcut is exactly as strong as hashing.
// The match compares bytes, never slice identity, so a buffer that is
// modified after it passed, or a tampered copy, is different bytes: it
// misses and takes the full check.
func Verify(raw []byte, want Digest) (*Image, error) {
	hit := verified.has(raw, want)
	if !hit && DigestOf(raw) != want {
		return nil, errors.New("appimage: digest mismatch")
	}
	im, err := Decode(raw)
	if err == nil && !hit {
		verified.add(raw, want)
	}
	return im, err
}

// Bounds of the verification memo: a few distinct images (a carousel
// rarely airs more at once), and never more than this many bytes of
// copies; larger encodings are not remembered.
const (
	memoEntries = 4
	memoBytes   = 16 << 20
)

// verified is the process-wide verification memo.
var verified verifyMemo

type verifyMemo struct {
	mu      sync.Mutex
	entries []memoEntry // most recent first; replaced, never written in place
}

type memoEntry struct {
	digest Digest
	raw    []byte // private copy of bytes that passed; never handed out
}

// has reports whether raw is byte-equal to a remembered encoding that
// passed against want.
func (m *verifyMemo) has(raw []byte, want Digest) bool {
	m.mu.Lock()
	entries := m.entries
	m.mu.Unlock()
	for _, e := range entries {
		if e.digest == want && bytes.Equal(e.raw, raw) {
			return true
		}
	}
	return false
}

// add remembers a private copy of raw, which passed against digest,
// evicting the oldest entries to stay within the bounds.
func (m *verifyMemo) add(raw []byte, digest Digest) {
	if len(raw) > memoBytes {
		return
	}
	e := memoEntry{digest: digest, raw: bytes.Clone(raw)}
	m.mu.Lock()
	defer m.mu.Unlock()
	next := make([]memoEntry, 1, memoEntries)
	next[0] = e
	size := len(e.raw)
	for _, old := range m.entries {
		if len(next) == memoEntries || size+len(old.raw) > memoBytes {
			break
		}
		if old.digest != digest {
			next = append(next, old)
			size += len(old.raw)
		}
	}
	m.entries = next
}
