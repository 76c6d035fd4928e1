//! What an experiment returns: its measured rows as printable tables, and
//! the paper's claims checked against those rows.

use std::fmt;

/// The range a measured value must fall in for its claim to hold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// `measured >= x`.
    AtLeast(f64),
    /// `measured <= x`.
    AtMost(f64),
    /// `lo <= measured <= hi`.
    Between(f64, f64),
}

impl Bound {
    /// Whether `measured` lies within the bound (NaN never does).
    pub fn admits(self, measured: f64) -> bool {
        match self {
            Bound::AtLeast(lo) => measured >= lo,
            Bound::AtMost(hi) => measured <= hi,
            Bound::Between(lo, hi) => (lo..=hi).contains(&measured),
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Bound::AtLeast(lo) => write!(f, ">= {}", num(lo)),
            Bound::AtMost(hi) => write!(f, "<= {}", num(hi)),
            Bound::Between(lo, hi) if lo == hi => write!(f, "= {}", num(lo)),
            Bound::Between(lo, hi) => write!(f, "{} .. {}", num(lo), num(hi)),
        }
    }
}

/// One statement of the paper, checked against a measured value.
#[derive(Debug, Clone)]
pub struct Claim {
    /// The paper's statement, as the quantity that is measured.
    pub statement: String,
    /// What this run measured.
    pub measured: f64,
    /// What the statement allows.
    pub bound: Bound,
    /// Whether `measured` lies within `bound`.
    pub holds: bool,
    /// Whether a failure of this claim fails the run. Set in code where
    /// the claim is made: a claim is gated once it holds at both sizes.
    pub gated: bool,
}

/// A claim awaiting its measured value and bound; see [`Outcome::gated`].
pub struct NewClaim<'a> {
    claims: &'a mut Vec<Claim>,
    statement: String,
    gated: bool,
}

impl NewClaim<'_> {
    /// Claims `measured >= lo`.
    pub fn at_least(self, measured: f64, lo: f64) {
        self.bound(measured, Bound::AtLeast(lo));
    }

    /// Claims `measured <= hi`.
    pub fn at_most(self, measured: f64, hi: f64) {
        self.bound(measured, Bound::AtMost(hi));
    }

    /// Claims `lo <= measured <= hi`.
    pub fn between(self, measured: f64, lo: f64, hi: f64) {
        self.bound(measured, Bound::Between(lo, hi));
    }

    /// Claims that a yes/no observation is yes (measured as 1 or 0).
    pub fn is_true(self, observed: bool) {
        self.between(f64::from(u8::from(observed)), 1.0, 1.0);
    }

    /// Records the claim.
    pub fn bound(self, measured: f64, bound: Bound) {
        self.claims.push(Claim {
            statement: self.statement,
            measured,
            bound,
            holds: bound.admits(measured),
            gated: self.gated,
        });
    }
}

/// The process exit status for a set of claims: non-zero when a gated
/// claim fails.
pub fn exit_status(claims: &[Claim]) -> i32 {
    i32::from(claims.iter().any(|c| c.gated && !c.holds))
}

/// A measured value as the claims table prints it.
fn num(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.0}")
    } else {
        format!("{x:.3}")
    }
}

/// A titled block of output. With columns it prints as an aligned table;
/// without, each row prints as one line of its cells.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Printed as `== title` above the table; omitted when empty.
    pub title: String,
    /// `(header, width)`. A negative width left-aligns the column, as
    /// printf's `%-8s` does; cells wider than the column are not cut.
    pub columns: Vec<(String, i32)>,
    /// One vector of cells per row.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// A table of aligned columns.
    pub fn new(title: impl Into<String>, columns: &[(&str, i32)]) -> Table {
        let columns = columns.iter().map(|&(h, w)| (h.to_string(), w)).collect();
        Table {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Lines of text under a title.
    pub fn lines(title: impl Into<String>, lines: Vec<String>) -> Table {
        Table {
            title: title.into(),
            columns: Vec::new(),
            rows: lines.into_iter().map(|l| vec![l]).collect(),
        }
    }

    fn write_row(&self, f: &mut fmt::Formatter<'_>, cells: &[String]) -> fmt::Result {
        for (i, cell) in cells.iter().enumerate() {
            let width = self.columns.get(i).map_or(0, |c| c.1);
            let (w, sep) = (width.unsigned_abs() as usize, if i == 0 { "" } else { " " });
            if width < 0 {
                write!(f, "{sep}{cell:<w$}")?;
            } else {
                write!(f, "{sep}{cell:>w$}")?;
            }
        }
        writeln!(f)
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.title.is_empty() {
            writeln!(f, "== {}", self.title)?;
        }
        if !self.columns.is_empty() {
            let header: Vec<String> = self.columns.iter().map(|c| c.0.clone()).collect();
            self.write_row(f, &header)?;
        }
        self.rows.iter().try_for_each(|row| self.write_row(f, row))
    }
}

/// What one experiment returns: its tables, then its claims.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The measured rows, in print order.
    pub tables: Vec<Table>,
    /// The paper's claims checked against them.
    pub claims: Vec<Claim>,
}

impl Outcome {
    /// Starts a claim whose failure makes the run exit non-zero.
    pub fn gated(&mut self, statement: impl Into<String>) -> NewClaim<'_> {
        self.claim(statement, true)
    }

    /// Starts a claim that is reported but does not fail the run: one
    /// this implementation does not reproduce yet.
    pub fn ungated(&mut self, statement: impl Into<String>) -> NewClaim<'_> {
        self.claim(statement, false)
    }

    /// Starts a claim, gated or not.
    pub fn claim(&mut self, statement: impl Into<String>, gated: bool) -> NewClaim<'_> {
        NewClaim {
            claims: &mut self.claims,
            statement: statement.into(),
            gated,
        }
    }
}

impl From<Vec<Table>> for Outcome {
    fn from(tables: Vec<Table>) -> Outcome {
        Outcome {
            tables,
            claims: Vec::new(),
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for table in &self.tables {
            writeln!(f, "{table}")?;
        }
        let mut claims = Table::new(
            "claims",
            &[
                ("verdict", -14),
                ("measured", 10),
                ("bound", -16),
                ("gate", -5),
                ("statement", 0),
            ],
        );
        for c in &self.claims {
            let verdict = if c.holds { "HOLDS" } else { "NOT REPRODUCED" };
            let gate = if c.gated { "gated" } else { "-" };
            let (measured, bound) = (num(c.measured), c.bound.to_string());
            claims.rows.push(vec![
                verdict.into(),
                measured,
                bound,
                gate.into(),
                c.statement.clone(),
            ]);
        }
        write!(f, "{claims}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_just_inside_holds_and_just_outside_fails() {
        let eps = 1e-9;
        for (bound, inside, outside) in [
            (Bound::AtLeast(0.9), 0.9, 0.9 - eps),
            (Bound::AtMost(0.02), 0.02, 0.02 + eps),
            (Bound::Between(0.9, 1.1), 1.1, 1.1 + eps),
            (Bound::Between(0.9, 1.1), 0.9, 0.9 - eps),
        ] {
            let mut out = Outcome::default();
            out.gated("inside").bound(inside, bound);
            out.gated("outside").bound(outside, bound);
            assert!(out.claims[0].holds, "{bound} {inside}");
            assert!(!out.claims[1].holds, "{bound} {outside}");
        }
        assert!(!Bound::AtLeast(0.0).admits(f64::NAN));
        let mut out = Outcome::default();
        out.gated("yes").is_true(true);
        out.gated("no").is_true(false);
        assert!(out.claims[0].holds && !out.claims[1].holds);
    }

    #[test]
    fn only_a_failing_gated_claim_fails_the_run() {
        let mut out = Outcome::default();
        out.gated("holds").between(3.0, 3.0, 3.0);
        out.ungated("not reproduced yet").at_least(0.07, 0.5);
        assert_eq!(exit_status(&out.claims), 0);
        out.gated("broken").at_least(0.95, 1.0);
        assert_ne!(exit_status(&out.claims), 0);
        let printed = out.to_string();
        let line = printed.lines().find(|l| l.ends_with("broken")).unwrap();
        assert!(
            line.starts_with("NOT REPRODUCED") && line.contains("gated"),
            "{printed}"
        );
    }

    #[test]
    fn negative_widths_left_align() {
        let mut t = Table::new("", &[("name", -6), ("n", 3)]);
        t.rows.push(vec!["ab".into(), "7".into()]);
        assert_eq!(t.to_string(), "name     n\nab       7\n");
    }
}
