package securejoin

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"strconv"
	"testing"
)

// Known-answer vectors for the client side of the scheme. Every value
// SJ.Setup, SJ.Enc and SJ.TokenGen produce from a seeded rng is pinned
// here: the master key bytes, four row ciphertexts, one query's two
// tokens and the rng offset each leaves behind. A rewrite of the Z_q
// arithmetic, the matrix code, the polynomial encoding or the base-mult
// comb must reproduce them byte for byte, because tables already stored
// on a server were encrypted under the old bytes and a key file already
// on disk must keep decoding to the same key.
//
// testdata/kat_m1_t4.scheme is the Setup output below, written to disk
// once: it stands for a key file written by an earlier build and must
// keep loading to the same key.

const katSchemeFile = "testdata/kat_m1_t4.scheme"

var katVectors = []struct{ name, sha256 string }{
	{"setup", "9b06de862b97fb767a90665068d3308d4e0d8936846a05ed992922b26136bcd3"},
	{"row0", "6622db97bd06e78eeae22094724d2c3e8781cd1716d1eb02b1417214411d99a0"},
	{"row1", "2dd812145f915afff9b32a79658fa57160b7fc92ceb4efe9b0b6839343585f34"},
	{"row2", "dac39cc0b1d042b939e457f2aa3eb710fb3c4bdc2a156b4c983f372f9420bcd7"},
	{"row3", "f4b558f42bfc174d976a1cd8f33afd41290d17b984b816ea81f32c5ae0d90a7c"},
	{"tokenA", "588b978b75c948eb21d21878a4a12ca108d7129b8191dacf2c4ec0994afab9b8"},
	{"tokenB", "94a698e34770fd40bd70979ffa94647910952788f1b52e95b32c9ec98b960019"},
}

// katRNGTail is the next rng output after Setup, the four rows and the
// query, so a change that drew more or fewer bytes fails even if the
// pinned outputs happened to survive.
const katRNGTail uint64 = 0x7c785db516d75a16

func TestKnownAnswerSeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s, err := Setup(Params{M: 1, T: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{}
	if got["setup"], err = s.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{JoinValue: []byte("alice"), Attrs: [][]byte{[]byte("web")}},
		{JoinValue: []byte("bob"), Attrs: [][]byte{[]byte("db")}},
		{JoinValue: []byte("carol")},
		{JoinValue: nil, Attrs: [][]byte{[]byte("web")}},
	}
	for i, row := range rows {
		ct, err := s.Encrypt(row)
		if err != nil {
			t.Fatal(err)
		}
		if got["row"+strconv.Itoa(i)], err = ct.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	q, err := s.NewQuery(Selection{0: {[]byte("web"), []byte("db")}}, Selection{})
	if err != nil {
		t.Fatal(err)
	}
	if got["tokenA"], err = q.TokenA.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	if got["tokenB"], err = q.TokenB.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	for _, v := range katVectors {
		h := sha256.Sum256(got[v.name])
		if hex.EncodeToString(h[:]) != v.sha256 {
			t.Errorf("%s: sha256 %x, want %s", v.name, h, v.sha256)
		}
	}
	if tail := rng.Uint64(); tail != katRNGTail {
		t.Errorf("rng tail %#x, want %#x", tail, katRNGTail)
	}

	key, err := os.ReadFile(katSchemeFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(key, got["setup"]) {
		t.Fatalf("Setup no longer writes the bytes of %s", katSchemeFile)
	}
	loaded, err := LoadScheme(key, nil)
	if err != nil {
		t.Fatalf("loading %s: %v", katSchemeFile, err)
	}
	again, err := loaded.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, key) {
		t.Fatalf("%s does not re-encode to itself", katSchemeFile)
	}
	if !loaded.msk.BStar.Equal(s.msk.BStar) {
		t.Fatalf("%s loads to a different B*", katSchemeFile)
	}
}
