//! The ACID-in-the-wild isolation survey (Table 2).
//!
//! §3: "we recently surveyed the default and maximum isolation guarantees
//! provided by 18 databases, often claiming to provide 'ACID' or
//! 'NewSQL' functionality ... only three out of 18 databases provided
//! serializability by default, and eight did not provide serializability
//! as an option at all." The dataset is reproduced verbatim (as of
//! January 2013, from the paper's reference \[8\]).

use std::fmt;

/// Isolation levels appearing in Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsolationLevel {
    /// RC — read committed.
    ReadCommitted,
    /// RR — repeatable read.
    RepeatableRead,
    /// SI — snapshot isolation.
    SnapshotIsolation,
    /// S — serializability.
    Serializability,
    /// CS — cursor stability.
    CursorStability,
    /// CR — consistent read.
    ConsistentRead,
    /// The level depends on configuration ("Depends" in the paper).
    Depends,
}

impl IsolationLevel {
    /// Table 2's abbreviation.
    pub fn code(self) -> &'static str {
        match self {
            IsolationLevel::ReadCommitted => "RC",
            IsolationLevel::RepeatableRead => "RR",
            IsolationLevel::SnapshotIsolation => "SI",
            IsolationLevel::Serializability => "S",
            IsolationLevel::CursorStability => "CS",
            IsolationLevel::ConsistentRead => "CR",
            IsolationLevel::Depends => "Depends",
        }
    }
}

impl fmt::Display for IsolationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One surveyed database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SurveyEntry {
    /// Product name and version as printed in Table 2.
    pub database: &'static str,
    /// Default isolation level.
    pub default: IsolationLevel,
    /// Maximum available isolation level.
    pub maximum: IsolationLevel,
}

use IsolationLevel::*;

/// Table 2, verbatim.
pub const SURVEY: [SurveyEntry; 18] = [
    SurveyEntry {
        database: "Actian Ingres 10.0/10S",
        default: Serializability,
        maximum: Serializability,
    },
    SurveyEntry {
        database: "Aerospike",
        default: ReadCommitted,
        maximum: ReadCommitted,
    },
    SurveyEntry {
        database: "Akiban Persistit",
        default: SnapshotIsolation,
        maximum: SnapshotIsolation,
    },
    SurveyEntry {
        database: "Clustrix CLX 4100",
        default: RepeatableRead,
        maximum: RepeatableRead,
    },
    SurveyEntry {
        database: "Greenplum 4.1",
        default: ReadCommitted,
        maximum: Serializability,
    },
    SurveyEntry {
        database: "IBM DB2 10 for z/OS",
        default: CursorStability,
        maximum: Serializability,
    },
    SurveyEntry {
        database: "IBM Informix 11.50",
        default: Depends,
        maximum: Serializability,
    },
    SurveyEntry {
        database: "MySQL 5.6",
        default: RepeatableRead,
        maximum: Serializability,
    },
    SurveyEntry {
        database: "MemSQL 1b",
        default: ReadCommitted,
        maximum: ReadCommitted,
    },
    SurveyEntry {
        database: "MS SQL Server 2012",
        default: ReadCommitted,
        maximum: Serializability,
    },
    SurveyEntry {
        database: "NuoDB",
        default: ConsistentRead,
        maximum: ConsistentRead,
    },
    SurveyEntry {
        database: "Oracle 11g",
        default: ReadCommitted,
        maximum: SnapshotIsolation,
    },
    SurveyEntry {
        database: "Oracle Berkeley DB",
        default: Serializability,
        maximum: Serializability,
    },
    SurveyEntry {
        database: "Oracle Berkeley DB JE",
        default: RepeatableRead,
        maximum: Serializability,
    },
    SurveyEntry {
        database: "Postgres 9.2.2",
        default: ReadCommitted,
        maximum: Serializability,
    },
    SurveyEntry {
        database: "SAP HANA",
        default: ReadCommitted,
        maximum: SnapshotIsolation,
    },
    SurveyEntry {
        database: "ScaleDB 1.02",
        default: ReadCommitted,
        maximum: ReadCommitted,
    },
    SurveyEntry {
        database: "VoltDB",
        default: Serializability,
        maximum: Serializability,
    },
];

/// Summary statistics over the survey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SurveyStats {
    /// Databases surveyed.
    pub total: usize,
    /// Serializable by default.
    pub serializable_by_default: usize,
    /// Serializability not offered at all.
    pub no_serializability_option: usize,
    /// Read Committed (or weaker) by default.
    pub weak_default: usize,
}

/// Computes the headline numbers quoted in §3.
pub fn stats() -> SurveyStats {
    let serializable_by_default = SURVEY
        .iter()
        .filter(|e| e.default == Serializability)
        .count();
    let no_serializability_option = SURVEY
        .iter()
        .filter(|e| e.maximum != Serializability)
        .count();
    let weak_default = SURVEY
        .iter()
        .filter(|e| matches!(e.default, ReadCommitted | CursorStability | ConsistentRead))
        .count();
    SurveyStats {
        total: SURVEY.len(),
        serializable_by_default,
        no_serializability_option,
        weak_default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_numbers_match_the_paper() {
        let s = stats();
        assert_eq!(s.total, 18);
        assert_eq!(
            s.serializable_by_default, 3,
            "three of 18 serializable by default"
        );
        assert_eq!(
            s.no_serializability_option, 8,
            "eight did not provide serializability as an option at all"
        );
    }

    #[test]
    fn specific_rows() {
        let oracle = SURVEY.iter().find(|e| e.database == "Oracle 11g").unwrap();
        assert_eq!(oracle.default, IsolationLevel::ReadCommitted);
        assert_eq!(oracle.maximum, IsolationLevel::SnapshotIsolation);
        let mysql = SURVEY.iter().find(|e| e.database == "MySQL 5.6").unwrap();
        assert_eq!(mysql.default, IsolationLevel::RepeatableRead);
    }

    #[test]
    fn codes_round_trip() {
        assert_eq!(IsolationLevel::SnapshotIsolation.to_string(), "SI");
        assert_eq!(IsolationLevel::Depends.code(), "Depends");
    }
}
