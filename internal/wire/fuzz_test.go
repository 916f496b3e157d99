package wire

import (
	"bytes"
	"testing"

	"repro/internal/types"
)

// FuzzDecodePayload: arbitrary bytes must never panic, and anything that
// decodes must re-encode to an equivalent payload (decode∘encode = id on
// the valid image).
func FuzzDecodePayload(f *testing.F) {
	for _, p := range []types.Payload{
		&types.DecidePayload{V: types.One, Instance: 3},
		&types.CoinSharePayload{Round: 2, Share: "s", MAC: "m"},
		&types.RBCPayload{Phase: types.KindRBCSend, ID: types.InstanceID{Sender: 1, Tag: types.Tag{Round: 1, Step: types.Step1}}, Body: "b"},
		&types.PlainPayload{Round: 1, Step: types.Step2, V: types.Zero, D: true},
	} {
		buf, err := EncodePayload(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePayload(data)
		if err != nil {
			return // malformed input is fine; panics are not
		}
		re, err := EncodePayload(p)
		if err != nil {
			t.Fatalf("decoded payload failed to re-encode: %#v: %v", p, err)
		}
		back, err := DecodePayload(re)
		if err != nil {
			t.Fatalf("re-encoded payload failed to decode: %v", err)
		}
		buf1, _ := EncodePayload(back)
		if !bytes.Equal(re, buf1) {
			t.Fatalf("encoding not stable: %x vs %x", re, buf1)
		}
	})
}

// FuzzDecodeStep: step bodies are fully Byzantine-controlled; the decoder
// must never panic and must only accept well-formed steps.
func FuzzDecodeStep(f *testing.F) {
	for _, s := range []types.StepMessage{
		{Round: 1, Step: types.Step1, V: types.Zero},
		{Round: 7, Step: types.Step3, V: types.One, D: true},
	} {
		body, err := EncodeStep(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add("")
	f.Add("\x00\x00\x00\x00")

	f.Fuzz(func(t *testing.T, body string) {
		s, err := DecodeStep(body)
		if err != nil {
			return
		}
		if s.Round < 1 || !s.Step.Valid() || !s.V.Valid() || (s.D && s.Step != types.Step3) {
			t.Fatalf("decoder accepted malformed step %+v from %q", s, body)
		}
		re, err := EncodeStep(s)
		if err != nil {
			t.Fatalf("accepted step failed to re-encode: %v", err)
		}
		if re != body {
			t.Fatalf("encoding not canonical: %q vs %q", re, body)
		}
	})
}

// FuzzDecodeBatch: batch bodies are fully Byzantine-controlled RBC payloads;
// the decoder must never panic, must only accept bounded well-formed
// batches, and must accept exactly the canonical encoding.
func FuzzDecodeBatch(f *testing.F) {
	for _, cmds := range [][]string{
		{"a"},
		{"set k v", "get k"},
		{"", "", ""},
	} {
		body, err := EncodeBatch(cmds)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add("")
	f.Add(string([]byte{byte(types.KindBatch), 0x81, 0x00, 1, 'a'}))

	f.Fuzz(func(t *testing.T, body string) {
		cmds, err := DecodeBatch(body)
		if err != nil {
			return
		}
		if len(cmds) == 0 || len(cmds) > MaxBatchCommands {
			t.Fatalf("decoder accepted out-of-bounds batch of %d from %q", len(cmds), body)
		}
		re, err := EncodeBatch(cmds)
		if err != nil {
			t.Fatalf("accepted batch failed to re-encode: %v", err)
		}
		if re != body {
			t.Fatalf("encoding not canonical: %q vs %q", re, body)
		}
	})
}

// FuzzDecodeFrag: coded-RBC fragment and checksum frames are fully
// Byzantine-controlled; the decoder must never panic, must enforce every
// fragment invariant (index in range, whole-SumLen checksum vector, bounded
// sizes), and must accept exactly the canonical encoding — a padded-varint
// double of a fragment must not parse.
func FuzzDecodeFrag(f *testing.F) {
	id := types.InstanceID{Sender: 3, Tag: types.Tag{Seq: 1 << 20}}
	sums := string(bytes.Repeat([]byte{0xAB}, 4*SumLen))
	for _, p := range []types.Payload{
		&types.RBCFragPayload{ID: id, Index: 0, TotalLen: 10, Sums: sums, Frag: "frag-zero"},
		&types.RBCFragPayload{ID: id, Index: 3, TotalLen: 0, Sums: sums, Frag: "x"},
		&types.RBCSumPayload{ID: id, Sum: sums[:SumLen]},
	} {
		buf, err := EncodePayload(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	// A truncated frag and a bare kind byte.
	f.Add([]byte{byte(types.KindRBCFrag), 0x02})
	f.Add([]byte{byte(types.KindRBCSum)})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePayload(data)
		if err != nil {
			return
		}
		switch v := p.(type) {
		case *types.RBCFragPayload:
			shards := len(v.Sums) / SumLen
			if len(v.Sums) == 0 || len(v.Sums)%SumLen != 0 || shards > MaxFragShards ||
				v.Index < 0 || v.Index >= shards ||
				v.TotalLen < 0 || v.TotalLen > MaxBodyLen ||
				len(v.Frag) == 0 || len(v.Frag) > MaxFragLen {
				t.Fatalf("decoder accepted malformed fragment %v from %x", v, data)
			}
		case *types.RBCSumPayload:
			if len(v.Sum) != SumLen {
				t.Fatalf("decoder accepted %d-byte checksum key from %x", len(v.Sum), data)
			}
		default:
			return // other kinds are FuzzDecodePayload's business
		}
		re, err := EncodePayload(p)
		if err != nil {
			t.Fatalf("accepted payload failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("encoding not canonical: %x vs %x", re, data)
		}
		if got := PayloadSize(p); got != len(re) {
			t.Fatalf("PayloadSize = %d, encoder produced %d bytes", got, len(re))
		}
	})
}
