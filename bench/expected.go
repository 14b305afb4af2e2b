package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// The expected files are the correctness gate's reference: reviewed by
// hand against EXPERIMENTS.md and the fixture tests, never written by
// the compiler under test. They are embedded so the gate does not
// depend on the working directory.
const (
	expectedSuiteFile = "bench/expected/suite.json"
	expectedMegaFile  = "bench/expected/mega50k.json"
)

//go:embed expected/suite.json
var expectedSuiteJSON []byte

//go:embed expected/mega50k.json
var expectedMegaJSON []byte

// expectedProgram is what a full-technique compile of one paper-suite
// program must find.
type expectedProgram struct {
	Loops int `json:"loops"`
	Doall int `json:"doall"`
	LRPD  int `json:"lrpd"`
}

// expectedMega pins what the pipeline finds in the megaprogram.
type expectedMega struct {
	Units              int `json:"units"`
	Lines              int `json:"lines"`
	Loops              int `json:"loops"`
	Doall              int `json:"doall"`
	LRPD               int `json:"lrpd"`
	Inlined            int `json:"inlined"`
	InterprocConstants int `json:"interproc_constants"`
}

func loadExpectedSuite() (map[string]expectedProgram, error) {
	var f struct {
		Programs map[string]expectedProgram `json:"programs"`
	}
	if err := json.Unmarshal(expectedSuiteJSON, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedSuiteFile, err)
	}
	return f.Programs, nil
}

func loadExpectedMega() (expectedMega, error) {
	var m expectedMega
	if err := json.Unmarshal(expectedMegaJSON, &m); err != nil {
		return m, fmt.Errorf("%s: %w", expectedMegaFile, err)
	}
	return m, nil
}
