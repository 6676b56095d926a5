package artifact

// Validate checks a table against the artifact schema: identity fields
// present, schema version current, kind and units from the closed
// vocabularies, column storage matching its declared kind, and all
// columns the same length. The CI schema gate runs every experiment's
// JSON output through it.
func Validate(t *Table) error {
	if t == nil {
		return errorf("nil table")
	}
	if t.ID == "" {
		return errorf("table has no ID")
	}
	if t.Title == "" {
		return errorf("%s: empty title", t.ID)
	}
	if !validKind(t.Kind) {
		return errorf("%s: unknown kind %q", t.ID, t.Kind)
	}
	if t.Prov.SchemaVersion != SchemaVersion {
		return errorf("%s: schema version %d, want %d", t.ID, t.Prov.SchemaVersion, SchemaVersion)
	}
	if t.Prov.ParamsDigest == "" {
		return errorf("%s: provenance has no params digest", t.ID)
	}
	if t.Prov.Tech == "" {
		return errorf("%s: provenance has no tech node", t.ID)
	}
	rows := -1
	for i := range t.Columns {
		c := &t.Columns[i]
		if c.Name == "" {
			return errorf("%s: column %d has no name", t.ID, i)
		}
		if !KnownUnit(c.Unit) {
			return errorf("%s: column %q has unknown unit %q", t.ID, c.Name, c.Unit)
		}
		if err := c.checkStorage(); err != nil {
			return errorf("%s: column %q: %v", t.ID, c.Name, err)
		}
		if rows == -1 {
			rows = c.Len()
		} else if c.Len() != rows {
			return errorf("%s: column %q has %d rows, want %d", t.ID, c.Name, c.Len(), rows)
		}
	}
	for i := range t.Metrics {
		m := &t.Metrics[i]
		if m.Name == "" {
			return errorf("%s: metric %d has no name", t.ID, i)
		}
		if !KnownUnit(m.Unit) {
			return errorf("%s: metric %q has unknown unit %q", t.ID, m.Name, m.Unit)
		}
	}
	return nil
}

func validKind(k Kind) bool {
	for _, v := range Kinds() {
		if k == v {
			return true
		}
	}
	return false
}

// checkStorage verifies exactly the slice selected by Kind is
// populated.
func (c *Column) checkStorage() error {
	switch c.Kind {
	case ColString:
		if c.I != nil || c.F != nil {
			return errorf("string column carries numeric storage")
		}
	case ColInt:
		if c.S != nil || c.F != nil {
			return errorf("int column carries non-int storage")
		}
	case ColFloat:
		if c.S != nil || c.I != nil {
			return errorf("float column carries non-float storage")
		}
	// All members are handled above; a foreign kind (corrupt JSON) is a validation error.
	default:
		return errorf("unknown column kind %q", c.Kind)
	}
	return nil
}
