package normkey

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"rowsort/internal/vector"
)

func TestCollationApply(t *testing.T) {
	cases := map[string]string{
		"":        "",
		"abc":     "abc",
		"ABC":     "abc",
		"AbC12-z": "abc12-z",
	}
	for in, want := range cases {
		if got := CollationNoCase.Apply(in); got != want {
			t.Errorf("NoCase(%q) = %q, want %q", in, got, want)
		}
		if got := CollationBinary.Apply(in); got != in {
			t.Errorf("Binary(%q) = %q", in, got)
		}
	}
}

func TestNoCaseEncodingOrder(t *testing.T) {
	v := vector.New(vector.Varchar, 4)
	v.AppendString("apple")
	v.AppendString("APPLE")
	v.AppendString("Banana")
	v.AppendString("aPricot")
	keys := []SortKey{{Type: vector.Varchar, Collation: CollationNoCase}}
	e, out := encodeTuples(t, keys, []*vector.Vector{v})

	// apple and APPLE must encode identically.
	if !bytes.Equal(keyRow(out, e.Width(), 0), keyRow(out, e.Width(), 1)) {
		t.Fatal("case variants should encode equal under NOCASE")
	}
	// apple < aPricot < Banana under NOCASE.
	if bytes.Compare(keyRow(out, e.Width(), 0), keyRow(out, e.Width(), 3)) >= 0 {
		t.Fatal("apple should sort before aPricot")
	}
	if bytes.Compare(keyRow(out, e.Width(), 3), keyRow(out, e.Width(), 2)) >= 0 {
		t.Fatal("aPricot should sort before Banana")
	}
	// Binary collation orders them differently (uppercase first).
	binKeys := []SortKey{{Type: vector.Varchar}}
	be, bout := encodeTuples(t, binKeys, []*vector.Vector{v})
	if bytes.Compare(keyRow(bout, be.Width(), 2), keyRow(bout, be.Width(), 0)) >= 0 {
		t.Fatal("binary collation should put Banana before apple")
	}
}

func TestNoCaseCompareRowsAgreesWithEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	letters := "aAbBcC"
	v := vector.New(vector.Varchar, 200)
	for i := 0; i < 200; i++ {
		n := rng.Intn(6)
		b := make([]byte, n)
		for j := range b {
			b[j] = letters[rng.Intn(len(letters))]
		}
		v.AppendString(string(b))
	}
	keys := []SortKey{{Type: vector.Varchar, Collation: CollationNoCase}}
	cols := []*vector.Vector{v}
	e, out := encodeTuples(t, keys, cols)
	for trial := 0; trial < 2000; trial++ {
		i, j := rng.Intn(200), rng.Intn(200)
		want := sign(CompareRows(keys, cols, i, j))
		got := sign(bytes.Compare(keyRow(out, e.Width(), i), keyRow(out, e.Width(), j)))
		if got != want {
			t.Fatalf("rows %d(%q) vs %d(%q): key %d, oracle %d",
				i, v.Strings()[i], j, v.Strings()[j], got, want)
		}
	}
}

// checkCollationCompare asserts Collation.Compare agrees in sign with the
// allocating reference strings.Compare(c.Apply(a), c.Apply(b)), in both
// argument orders, for both collations.
func checkCollationCompare(t *testing.T, a, b string) {
	t.Helper()
	for _, c := range []Collation{CollationBinary, CollationNoCase} {
		want := strings.Compare(c.Apply(a), c.Apply(b))
		if got := sign(c.Compare([]byte(a), []byte(b))); got != want {
			t.Fatalf("collation %d: Compare(%q, %q) = %d, want %d", c, a, b, got, want)
		}
		if got := sign(c.Compare([]byte(b), []byte(a))); got != -want {
			t.Fatalf("collation %d: Compare(%q, %q) = %d, want %d", c, b, a, got, -want)
		}
	}
}

func TestCollationCompareMatchesApply(t *testing.T) {
	pairs := [][2]string{
		{"", ""},
		{"", "a"},
		{"", "\x00"},
		{"abc", "abc"},
		{"abc", "abcd"},          // prefix
		{"ABC", "abcd"},          // prefix only after folding
		{"abc", "ABC"},           // equal under NOCASE only
		{"apple", "Banana"},      // folding flips the binary order
		{"a\x00b", "a\x00c"},     // embedded NUL
		{"a\x00", "a"},           // NUL-extended prefix
		{"[", "a"},               // '[' sorts after 'A'..'Z' but before 'a'
		{"_", "A"},               // '_' sorts between 'Z' and 'a'
		{"@", "a"},               // the byte below 'A'
		{"Z", "z"},               // the last folded letter
		{"\xc3\xa9", "\xc3\x89"}, // bytes >= 0x80 are not folded
		{"\x80", "\x7f"},
		{"\xff\xfe", "\xffA"},
		{"https://shop.example.com/Item/1", "https://shop.example.com/item/2"},
	}
	for _, p := range pairs {
		checkCollationCompare(t, p[0], p[1])
	}
	rng := rand.New(rand.NewSource(131))
	alphabet := "aAzZ@[`{\x00\x7f\x80\xff"
	for trial := 0; trial < 5000; trial++ {
		gen := func() string {
			b := make([]byte, rng.Intn(6))
			for i := range b {
				b[i] = alphabet[rng.Intn(len(alphabet))]
			}
			return string(b)
		}
		checkCollationCompare(t, gen(), gen())
	}
}

// TestCollationCompareAllocatesNothing pins the in-place comparison the
// sorter's tie-break relies on: NOCASE must fold without materializing.
func TestCollationCompareAllocatesNothing(t *testing.T) {
	a, b := []byte("HTTPS://Shop.Example.COM/x"), []byte("https://shop.example.com/y")
	for _, c := range []Collation{CollationBinary, CollationNoCase} {
		if n := testing.AllocsPerRun(100, func() { _ = c.Compare(a, b) }); n != 0 {
			t.Fatalf("collation %d: Compare allocates %v per call, want 0", c, n)
		}
	}
}

func FuzzCollationCompare(f *testing.F) {
	f.Add("", "")
	f.Add("abc", "ABCD")
	f.Add("a\x00b", "A\x00")
	f.Add("\xc3\xa9", "\xc3\x89")
	f.Fuzz(func(t *testing.T, a, b string) {
		checkCollationCompare(t, a, b)
	})
}
