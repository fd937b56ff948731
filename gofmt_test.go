package vini_test

import (
	"bytes"
	"go/format"
	"sort"
	"strings"
	"testing"
)

// TestGofmt: every .go file of the root module, tests included, is as
// gofmt prints it, so `go test ./...` fails where a formatting check
// would. benchmark/ is its own module and is not checked.
func TestGofmt(t *testing.T) {
	var bad []string
	for file, text := range readSource(t, ".") {
		if strings.HasPrefix(file, "benchmark/") {
			continue
		}
		out, err := format.Source([]byte(text))
		if err != nil {
			t.Errorf("%s: %v", file, err)
		} else if !bytes.Equal(out, []byte(text)) {
			bad = append(bad, file)
		}
	}
	sort.Strings(bad)
	for _, file := range bad {
		t.Errorf("%s is not gofmt-formatted: run gofmt -w %s", file, file)
	}
}
