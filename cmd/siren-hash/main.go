// Command siren-hash is an ssdeep-style fuzzy-hash CLI built on the
// internal CTPH implementation: hash files, or score two digests or files
// against each other, optionally with the Damerau–Levenshtein backend the
// paper describes.
//
// Usage:
//
//	siren-hash file...                      # print digests
//	siren-hash -compare digestOrFile digestOrFile
//	siren-hash -backend damerau -compare a b
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"siren/internal/ssdeep"
)

func main() {
	compare := flag.Bool("compare", false, "compare two digests (or files)")
	backendName := flag.String("backend", "weighted", "scoring backend: weighted|damerau|levenshtein")
	flag.Parse()
	args := flag.Args()

	// Shared grammar with the serving tier's identify API.
	backend, err := ssdeep.ParseBackend(*backendName)
	if err != nil {
		fatal(err)
	}

	if *compare {
		if len(args) != 2 {
			fatal(fmt.Errorf("-compare needs exactly two arguments"))
		}
		d1, err := digestOf(args[0])
		if err != nil {
			fatal(err)
		}
		d2, err := digestOf(args[1])
		if err != nil {
			fatal(err)
		}
		score, err := ssdeep.CompareWith(d1, d2, backend)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%d\n", score)
		return
	}

	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: siren-hash [-compare] [-backend b] <file-or-digest>...")
		os.Exit(2)
	}
	for _, path := range args {
		h, err := hashFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "siren-hash: %v\n", err)
			continue
		}
		fmt.Printf("%s,%q\n", h, path)
	}
}

// hashFile streams the file at path through the fuzzy hasher, so memory
// stays flat however large the file is.
func hashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer func() { _ = f.Close() }() // read only: nothing to lose on close
	h, err := ssdeep.HashReader(f)
	if err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	return h, nil
}

// digestOf treats arg as a digest if it parses as one, otherwise hashes the
// file at that path.
func digestOf(arg string) (string, error) {
	if _, err := ssdeep.ParseDigest(arg); err == nil && strings.Count(arg, ":") >= 2 {
		return arg, nil
	}
	return hashFile(arg)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "siren-hash:", err)
	os.Exit(1)
}
