package bn256

import (
	"crypto/sha256"
	"encoding/hex"
	"math/big"
	"strconv"
	"testing"
)

// Known-answer vectors. The pairing tests elsewhere are relational
// (bilinearity, batch equals product), so a Miller loop or final
// exponentiation that computed a different but still bilinear pairing
// would pass them all while silently changing every GT value the system
// stores and hashes. These fixed encodings pin the exact pairing and the
// exact scalar multiplications: a rewrite of either must reproduce them
// byte for byte.

// katScalar derives a fixed scalar in [0, Order) from a label.
func katScalar(label string) *big.Int {
	h := sha256.Sum256([]byte("bn256 kat " + label))
	return new(big.Int).Mod(new(big.Int).SetBytes(h[:]), Order)
}

// katBatch is the d=5 precomputed batch of the vectors: slot 1 holds the
// G1 identity and slot 3 the G2 identity.
func katBatch() ([]*G2, []*G1) {
	qs := make([]*G2, 5)
	ps := make([]*G1, 5)
	for i := range qs {
		qs[i] = new(G2).ScalarBaseMult(katScalar("batch g2 " + strconv.Itoa(i)))
		ps[i] = new(G1).ScalarBaseMult(katScalar("batch g1 " + strconv.Itoa(i)))
	}
	ps[1].SetInfinity()
	qs[3].SetInfinity()
	return qs, ps
}

func katCases() []struct {
	name string
	got  func() []byte
} {
	one := big.NewInt(1)
	rMinus1 := new(big.Int).Sub(Order, one)
	ones254 := new(big.Int).Sub(new(big.Int).Lsh(one, 254), one)
	scalars := []struct {
		name string
		k    *big.Int
	}{{"0", big.NewInt(0)}, {"1", one}, {"r-1", rMinus1}, {"2^254-1", ones254}}

	type kase = struct {
		name string
		got  func() []byte
	}
	cases := []kase{
		{"pair-generators", func() []byte {
			g1 := new(G1).ScalarBaseMult(one)
			g2 := new(G2).ScalarBaseMult(one)
			return Pair(g2, g1).Marshal()
		}},
		{"pair-scalars", func() []byte {
			p := new(G1).ScalarBaseMult(katScalar("a"))
			q := new(G2).ScalarBaseMult(katScalar("b"))
			return Pair(q, p).Marshal()
		}},
		{"pairbatch-precomputed-d5", func() []byte {
			qs, ps := katBatch()
			return PairBatchPrecomputed(PrecomputePairBatch(qs), ps).Marshal()
		}},
	}
	for _, s := range scalars {
		k := s.k
		cases = append(cases,
			kase{"g1-basemult-" + s.name, func() []byte { return new(G1).ScalarBaseMult(k).Marshal() }},
			kase{"g2-basemult-" + s.name, func() []byte { return new(G2).ScalarBaseMult(k).Marshal() }},
		)
	}
	return cases
}

func TestKnownAnswerVectors(t *testing.T) {
	for _, c := range katCases() {
		t.Run(c.name, func(t *testing.T) {
			want, ok := katWant[c.name]
			if !ok {
				t.Fatal("no known answer recorded")
			}
			if got := hex.EncodeToString(c.got()); got != want {
				t.Fatalf("encoding changed:\n got %s\nwant %s", got, want)
			}
		})
	}
}

var katWant = map[string]string{
	"pair-generators": "112acdc4a3c5f38fd40786c9e7b67ca16e00f53efe422d876b24be74bfa7ac7c" +
		"169b32d3834a8cb0fa9be15b78368350ffccfd8bcb8d2354f7416e2c7b397d14" +
		"2f8401285ff8f8891aff58bf978227b66605132f86d605fa29dd8ab45e23c6d0" +
		"1a7d9d219418c71708d69e4bab537ab6a61626b1988a8e89fecbd688f6bc1705" +
		"200c6e437dcbfa6895f069597041fc6589b6b25963f50da2d29bdde4f1aa71b6" +
		"16951d476155c2fdc2535f445fdeec2422417c78c3e19439dcfddb2138dc54a2" +
		"02ad3e7b3277beccae19630de294e3f5da8c525bd471ae37eac015ba15fb9f7d" +
		"100df8b13647a3b0cf46c595153f13d322a2eecf78f6856b73bc4bace1b10835" +
		"2b469907b40ebee93ee6e8c371979614fc3b1c8b51876fa19fac1f9013e4f6ef" +
		"18a46d052e2d55e52b6ec88edd384ff3ac953c737ceba2452b261f4bacdff495" +
		"0d397dc9079a1f3862773433c852b73da7fa19107989a0de37a1dbb8fa290cc1" +
		"274ace0b913606ff14022b227af107bae9fcdb4fc74ae97902ca60389213c39f",
	"pair-scalars": "0ba287733b1ff94a8d0dc0fd4f695f75e654e473c4f38f9b83b7331fb3cfbb9d" +
		"025cd1d08e94d7f9b8b72f53eb42315674c3527d5c8fc6eb0adac9f4ced86bc8" +
		"1ff24c42516c1ad163cc28bd469d7481ac85d26c2fea11e1905065052bf18b55" +
		"2af35a18cc0bd99670fe6309fce24b1fd2cc925df36e20c29d4842dbd7d22bf9" +
		"00cb6aa5cfcc84b17b6bceb272fd682c536b7422dfc7fb67564bc107f814b3db" +
		"2ff05100778c554a2f8de99c7745f49eb8aea0f0f4ca73760602bc02728811fc" +
		"15d1357281d839135cfb7f5d73a5452dfe6bb046922b19a6128fc1a4e43c9e95" +
		"18175e4fe70ea8792df94a7574b8eba19dcc1b3a221fcf4ead708e1f8555e8cb" +
		"09b7db8aec1d0ebe1b880c881d356d179e16ad609c5c260d985f4d840372e35e" +
		"2488df183a19af48f8b2a4618a1d7696b202f2d74252e7a1d572931269743a3b" +
		"07dcd71ee35dbec0a55326fe34bde07d097d4c0715dec9ae8fb18e73934a5327" +
		"006967b919ad924c0c71d6587d122d2ef8da53841b8dd5e7c289ab5c6f84f80f",
	"pairbatch-precomputed-d5": "08c9dcb5797d6ace689e871881d6daba5b7795e50f44808dc3d74782f26d0e60" +
		"2474ae1c83697930dfbb7b47953d8b6224f5d4917f6e7bf58b1eac9995d55f15" +
		"0fcbda76b167b97eb63be5cd296a041e72ddedfaf1f112fd9f22f178714747c5" +
		"17bb5439a0168a031dac28cc3827beb078ce2cd42158c1a56ea688e78844f03b" +
		"126c08bfbc52a080ded9e563a6a04bedf40347c73e44984424da2f8307a9026a" +
		"2aaca63ebaad34f1d71adb4d8f58639cc1650c5054077c10d3f2ec1a53565105" +
		"03619397642c173a4d5ce8d647f3065fb5950e92c3256d39c3ac65d0c8374559" +
		"12b2cd6634b04609c0e98c14b53c1f06448a5daa096858932d01289cfd5b57b4" +
		"12349621f8dd550b23f75170b0f02ff795dabd3092cee9d015430301ca5bb178" +
		"26d877001d266c916e20962b76a0dca027fa034ac56f2c8a30f21b3ea7f854d4" +
		"0deefbaa17631b9eca2382fa68e033e727109202b2273f3faa63104997af0c70" +
		"1047f17e2483c5557fb8406e76bfaac9d796d38fc88cbb20a31be4dd225cbd13",
	"g1-basemult-0":       "00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	"g2-basemult-0":       "80000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	"g1-basemult-1":       "00000000000000000000000000000000000000000000000000000000000000010000000000000000000000000000000000000000000000000000000000000002",
	"g2-basemult-1":       "27d409ede13256511fb71acc9b73965ec3ee0cf9768aa74bfdaa33a3d1af123c0cc52155d015f5bfe14a977f613d2d1fc2dd71966abf025a3dea3444afb7eeed",
	"g1-basemult-r-1":     "000000000000000000000000000000000000000000000000000000000000000130644e72e131a029b85045b68181585d97816a916871ca8d3c208c16d87cfd45",
	"g2-basemult-r-1":     "67d409ede13256511fb71acc9b73965ec3ee0cf9768aa74bfdaa33a3d1af123c0cc52155d015f5bfe14a977f613d2d1fc2dd71966abf025a3dea3444afb7eeed",
	"g1-basemult-2^254-1": "24d8d7eb9dfaf18909148351c67fee2f318be62b63122372e09c1c3b42000e271d5fdee3f4749938775bbc054405fafc79cafc9e8132de7f8becc061dc3bf2c9",
	"g2-basemult-2^254-1": "05d124d55ff951326593a58407b8e732c2220be1d3a0f564f27a761146288aa707cdd2e220e490850093b7c5355c01585f7ac62dddbccfe9a3f43cf86649b7ac",
}
