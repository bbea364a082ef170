package algebra

import (
	"testing"

	"etlopt/internal/data"
)

// TestDateReformatTable pins a2edate and e2adate on well-formed and
// malformed strings: the swapped output, or the exact error message.
func TestDateReformatTable(t *testing.T) {
	cases := []struct {
		in, want string // want is the output; "" means an error
	}{
		{"03/15/2004", "15/03/2004"},
		{"1/2/3", "2/1/3"},
		{"//", "//"},
		{"a//b", "/a/b"},
		{"/x/", "x//"},
		{"ab/c/", "c/ab/"},
		{"", ""},
		{"2004-03-15", ""},
		{"1/2", ""},
		{"1/2/3/4", ""},
		{"///", ""},
	}
	for _, name := range []string{"a2edate", "e2adate"} {
		fn, ok := LookupFunc(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		format := map[string]string{"a2edate": "MM/DD/YYYY", "e2adate": "DD/MM/YYYY"}[name]
		for _, c := range cases {
			got, err := fn.Apply([]data.Value{data.NewString(c.in)})
			if c.want == "" {
				want := name + `: "` + c.in + `" is not ` + format
				if err == nil || err.Error() != want {
					t.Errorf("%s(%q) = %v, %v; want error %q", name, c.in, got, err, want)
				}
				if !got.IsNull() {
					t.Errorf("%s(%q) returned %v with its error, want NULL", name, c.in, got)
				}
				continue
			}
			if err != nil || got.Kind() != data.KindString || got.Str() != c.want {
				t.Errorf("%s(%q) = %v, %v; want %q", name, c.in, got, err, c.want)
			}
		}
	}
}
