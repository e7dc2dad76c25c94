package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Counted is a golden file's payload: it knows how many entries it holds,
// and the file states how many it was written with.
type Counted interface {
	Count() int
}

type goldenFile struct {
	Entries int             `json:"entries"`
	Golden  json.RawMessage `json:"golden"`
}

// ReadGolden loads a golden file into v. It refuses a file that is cut
// short, carries trailing data, has unknown fields, or holds a different
// number of entries than it was written with, so a damaged reference
// cannot pass for a correct one.
func ReadGolden(path string, v Counted) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f goldenFile
	if err := decodeStrict(b, &f); err != nil {
		return fmt.Errorf("harness: golden file %s: %w", path, err)
	}
	if err := decodeStrict(f.Golden, v); err != nil {
		return fmt.Errorf("harness: golden file %s: %w", path, err)
	}
	if v.Count() != f.Entries || f.Entries == 0 {
		return fmt.Errorf("harness: golden file %s holds %d entries, written with %d", path, v.Count(), f.Entries)
	}
	return nil
}

func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after the JSON value")
	}
	return nil
}

// WriteGolden writes v with its entry count.
func WriteGolden(path string, v Counted) error {
	payload, err := json.MarshalIndent(v, "  ", "  ")
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(goldenFile{Entries: v.Count(), Golden: payload}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
