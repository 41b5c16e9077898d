package control

import (
	"crypto/ed25519"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/core/instance"
)

func testKeys(t testing.TB) (ed25519.PublicKey, ed25519.PrivateKey) {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return pub, priv
}

func sampleWakeup() *Wakeup {
	return &Wakeup{
		InstanceID:  42,
		Seq:         3,
		Probability: 0.25,
		Requirements: instance.Requirements{
			Class:       instance.ClassSTB,
			MinMemMB:    128,
			MinCPUScore: 50,
		},
		ImageFile:       "image",
		ImageDigest:     appimage.Digest{1, 2, 3},
		HeartbeatPeriod: 30 * time.Second,
		Lifetime:        2 * time.Hour,
	}
}

func TestWakeupSignOpenRoundTrip(t *testing.T) {
	pub, priv := testKeys(t)
	w := sampleWakeup()
	raw, err := SignWakeup(w, priv)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := Open(raw, pub)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := msg.(*Wakeup)
	if !ok {
		t.Fatalf("decoded %T", msg)
	}
	if !reflect.DeepEqual(got, w) {
		t.Fatalf("got %+v want %+v", got, w)
	}
}

func TestResetSignOpenRoundTrip(t *testing.T) {
	pub, priv := testKeys(t)
	r := &Reset{InstanceID: 7, Seq: 9}
	raw, err := SignReset(r, priv)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := Open(raw, pub)
	if err != nil {
		t.Fatal(err)
	}
	if got := msg.(*Reset); !reflect.DeepEqual(got, r) {
		t.Fatalf("got %+v", got)
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	_, priv := testKeys(t)
	otherPub, _, _ := ed25519.GenerateKey(rand.New(rand.NewSource(99)))
	raw, _ := SignWakeup(sampleWakeup(), priv)
	if _, err := Open(raw, otherPub); err != ErrBadSignature {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

// Property: flipping any byte of a signed envelope makes Open fail.
func TestEnvelopeTamperProperty(t *testing.T) {
	pub, priv := testKeys(t)
	raw, _ := SignWakeup(sampleWakeup(), priv)
	f := func(pos uint16, flip uint8) bool {
		if flip == 0 {
			flip = 0xFF
		}
		tampered := append([]byte(nil), raw...)
		tampered[int(pos)%len(tampered)] ^= flip
		_, err := Open(tampered, pub)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWakeupValidation(t *testing.T) {
	_, priv := testKeys(t)
	w := sampleWakeup()
	w.Probability = 1.5
	if _, err := SignWakeup(w, priv); err == nil {
		t.Fatal("probability > 1 accepted")
	}
	w = sampleWakeup()
	w.Probability = -0.1
	if _, err := SignWakeup(w, priv); err == nil {
		t.Fatal("negative probability accepted")
	}
	w = sampleWakeup()
	w.HeartbeatPeriod = -time.Second
	if _, err := SignWakeup(w, priv); err == nil {
		t.Fatal("negative heartbeat period accepted")
	}
}

func TestOpenTruncated(t *testing.T) {
	pub, priv := testKeys(t)
	raw, _ := SignWakeup(sampleWakeup(), priv)
	for _, cut := range []int{0, 10, len(raw) - 1} {
		if _, err := Open(raw[:cut], pub); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// Property: arbitrary wakeups round-trip through sign/open.
func TestWakeupRoundTripProperty(t *testing.T) {
	pub, priv := testKeys(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var digest appimage.Digest
		rng.Read(digest[:])
		w := &Wakeup{
			InstanceID:  instance.ID(rng.Uint64()),
			Seq:         rng.Uint32(),
			Probability: rng.Float64(),
			Requirements: instance.Requirements{
				Class:       instance.DeviceClass(rng.Intn(5)),
				MinMemMB:    rng.Uint32(),
				MinCPUScore: rng.Uint32(),
			},
			ImageFile:       "img",
			ImageDigest:     digest,
			HeartbeatPeriod: time.Duration(rng.Int63n(1e12)),
			Lifetime:        time.Duration(rng.Int63n(1e13)),
		}
		raw, err := SignWakeup(w, priv)
		if err != nil {
			return false
		}
		msg, err := Open(raw, pub)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(msg, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHeartbeatRoundTrip(t *testing.T) {
	h := &Heartbeat{
		NodeID:     12345,
		State:      StateBusy,
		InstanceID: 42,
		Profile:    instance.DeviceProfile{Class: instance.ClassSTB, MemMB: 256, CPUScore: 100},
		TasksDone:  17,
		SentAt:     time.Date(2009, 11, 1, 12, 0, 0, 123, time.UTC),
	}
	got, err := DecodeHeartbeat(EncodeHeartbeat(h))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("got %+v want %+v", got, h)
	}
}

func TestHeartbeatReplyRoundTrip(t *testing.T) {
	r := &HeartbeatReply{Command: CmdReset, Period: time.Minute}
	got, err := DecodeHeartbeatReply(EncodeHeartbeatReply(r))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("got %+v", got)
	}
}

func TestHeartbeatDecodeTruncated(t *testing.T) {
	raw := EncodeHeartbeat(&Heartbeat{SentAt: time.Unix(0, 0)})
	for _, cut := range []int{0, 8, 16, len(raw) - 1} {
		if _, err := DecodeHeartbeat(raw[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeHeartbeatReply(nil); err == nil {
		t.Fatal("empty reply accepted")
	}
}

func TestNodeStateString(t *testing.T) {
	if StateIdle.String() != "idle" || StateBusy.String() != "busy" {
		t.Fatal("state strings wrong")
	}
}

func TestRequirementsMatch(t *testing.T) {
	stb := instance.DeviceProfile{Class: instance.ClassSTB, MemMB: 256, CPUScore: 100}
	cases := []struct {
		req  instance.Requirements
		want bool
	}{
		{instance.Requirements{}, true},
		{instance.Requirements{Class: instance.ClassSTB}, true},
		{instance.Requirements{Class: instance.ClassMobile}, false},
		{instance.Requirements{MinMemMB: 256}, true},
		{instance.Requirements{MinMemMB: 512}, false},
		{instance.Requirements{MinCPUScore: 100}, true},
		{instance.Requirements{MinCPUScore: 101}, false},
	}
	for i, c := range cases {
		if got := c.req.Match(stb); got != c.want {
			t.Errorf("case %d: Match = %v", i, got)
		}
	}
}
