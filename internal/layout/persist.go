package layout

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"s2rdf/internal/dict"
	"s2rdf/internal/store"
)

// A saved store is one store.Dir holding the graph and nothing derivable
// from it: the dictionary in dict.txt, TT in a table file, and the options
// the dataset was built with in manifest.json. Load builds VP, the ExtVP
// reductions and their statistics again from TT, as the paper derives them
// at load time (Sec. 5.2). All three files go through the store's
// checksummed framing.
const (
	dictName     = "dict.txt"
	manifestName = "manifest.json"
	// oldMetaName is the schema file of the earlier format, which also
	// persisted every ExtVP reduction.
	oldMetaName = "meta.json"
)

// manifestVersion is the version of the saved store format. Version 1
// stores hold a TT table of the previous table format, which Load no longer
// reads.
const manifestVersion = 2

// manifest records the build options of a saved dataset.
type manifest struct {
	Version     int     `json:"version"`
	Threshold   float64 `json:"threshold"`
	ExtVP       bool    `json:"extvp"`
	OO          bool    `json:"oo"`
	Materialize bool    `json:"materialize"`
}

// corrupt reports a store directory whose parts disagree with each other.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("layout: "+format+": %w", append(args, store.ErrCorrupt)...)
}

// Save persists the dataset to dir: its dictionary, TT and the options it
// was built with. VP and ExtVP are not written: Load derives them again.
func Save(ds *Dataset, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	d := store.Open(dir)
	if err := d.WriteFile(dictName, ds.Dict.Save); err != nil {
		return err
	}
	if err := d.SaveTable(ds.TT); err != nil {
		return err
	}
	o := ds.Options
	m := manifest{manifestVersion, o.Threshold, o.BuildExtVP, o.BuildOO, o.Materialize}
	return d.WriteFile(manifestName, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(&m)
	})
}

// Load reads a dataset previously written by Save and builds it with the
// options it was saved with, so it equals the saved dataset: the same VP
// views of TT, the same ExtVP reductions in the same representation, and
// the same statistics. A damaged file reports an error wrapping
// store.ErrCorrupt, as does a directory of the earlier format. The property
// table is built too when withPT is true.
func Load(dir string, withPT bool) (*Dataset, error) {
	d := store.Open(dir)
	var m manifest
	err := d.ReadFile(manifestName, func(br *bufio.Reader) error {
		raw, err := io.ReadAll(br)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &m); err != nil {
			return corrupt("%v", err)
		}
		return nil
	})
	if errors.Is(err, fs.ErrNotExist) {
		if _, serr := os.Stat(filepath.Join(dir, oldMetaName)); serr == nil {
			return nil, corrupt("%s holds %s and no %s, a store of an earlier format; re-save it with `s2rdf load`", dir, oldMetaName, manifestName)
		}
	}
	if err != nil {
		return nil, err
	}
	if m.Version != manifestVersion {
		return nil, corrupt("%s has version %d, want %d; re-save the store with `s2rdf load`", manifestName, m.Version, manifestVersion)
	}
	var dc *dict.Dict
	err = d.ReadFile(dictName, func(br *bufio.Reader) (err error) {
		dc, err = dict.Load(br)
		return err
	})
	if err != nil {
		return nil, err
	}
	tt, err := d.LoadTable("TT")
	if err != nil {
		return nil, err
	}
	// buildVP decodes TT's predicates and the ExtVP build indexes the
	// dictionary's IDs, so an ID past its end must stop here as an error.
	for _, col := range tt.Data {
		for _, v := range col {
			if int(v) >= dc.Len() {
				return nil, corrupt("TT holds ID %d, %s has %d terms", v, dictName, dc.Len())
			}
		}
	}
	return BuildEncoded(tt, dc, Options{
		Threshold:   m.Threshold,
		BuildExtVP:  m.ExtVP,
		BuildOO:     m.OO,
		BuildPT:     withPT,
		Materialize: m.Materialize,
	}), nil
}

// DiskBytes sums the on-disk size of the files the store in dir consists
// of: the dictionary, TT and the manifest. Files left behind by an earlier
// store in the same directory do not count.
func DiskBytes(dir string) (int64, error) {
	d := store.Open(dir)
	total, err := d.TableBytes("TT")
	if err != nil {
		return 0, err
	}
	for _, name := range []string{dictName, manifestName} {
		n, err := d.FileBytes(name)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}
