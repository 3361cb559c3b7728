package harness

// Cells returns the experiment's deterministic cell enumeration for the
// config.
func (e Experiment) Cells(cfg RunConfig) ([]Cell, error) {
	p, err := e.Plan(cfg)
	if err != nil {
		return nil, err
	}
	return p.Cells, nil
}

// Run executes the whole experiment in this process: enumerate, run
// every cell sequentially, assemble. It is the in-process reference the
// fragment round trip compares against.
func (e Experiment) Run(cfg RunConfig) ([]Table, error) {
	p, err := e.Plan(cfg)
	if err != nil {
		return nil, err
	}
	return p.Assemble(p.RunAll(0))
}
