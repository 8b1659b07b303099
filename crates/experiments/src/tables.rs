//! Reproduction of the paper's tables.
//!
//! Tables 1–7 and 9 are *inputs* of the model (cost tables, parameter
//! catalog, frequency formulas, ranges); regenerating them checks that
//! the implementation encodes exactly what the paper states. Table 8 is
//! a *result*: the sensitivity analysis.

use swcc_core::prelude::*;
use swcc_core::sensitivity::sensitivity_table;
use swcc_core::workload::TABLE7_RANGES;

use crate::artifact::Table;

fn fmt_f(v: f64) -> String {
    // swcc-lint: allow(float-eq) — the table prints -0.0 and 0.0 both as plain 0 on purpose
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 0.01 {
        format!("{v:.4}")
    } else {
        format!("{v:.6}")
    }
}

/// Table 1: CPU and bus time for hardware operations.
pub fn table1() -> Table {
    let sys = BusSystemModel::new();
    let mut t = Table::new(
        "Table 1: system model — CPU and bus time for hardware operations (cycles)",
        vec!["operation".into(), "cpu".into(), "bus".into()],
    );
    for op in Operation::ALL {
        let c = sys.cost(op).expect("bus model is total");
        t.push_row(vec![
            op.name().to_string(),
            c.cpu().to_string(),
            c.interconnect().to_string(),
        ]);
    }
    t.notes
        .push("derived from a RISC machine with 4-word blocks, 2-cycle memory, 1-word bus".into());
    t
}

/// Table 2: the workload-model parameters.
pub fn table2() -> Table {
    let mut t = Table::new(
        "Table 2: parameters for the workload model",
        vec!["parameter".into(), "description".into()],
    );
    for id in ParamId::ALL {
        t.push_row(vec![id.name().to_string(), id.description().to_string()]);
    }
    t
}

fn frequency_table(title: &str, scheme: Scheme, workload: &WorkloadParams) -> Table {
    let mut t = Table::new(
        title,
        vec!["operation".into(), "frequency / instruction".into()],
    );
    scheme_terms(scheme, workload, &BusSystemModel::new(), |op, freq, _| {
        t.push_row(vec![op.name().to_string(), fmt_f(freq)]);
    })
    .expect("the Table 1 bus prices every operation");
    t.notes.push(format!(
        "evaluated at middle (Table 7) parameters; scheme = {scheme}"
    ));
    t
}

/// Table 3: operation frequencies of the Base scheme (middle workload).
pub fn table3() -> Table {
    frequency_table(
        "Table 3: workload model — Base scheme",
        Scheme::Base,
        &WorkloadParams::default(),
    )
}

/// Table 4: operation frequencies of the No-Cache scheme.
pub fn table4() -> Table {
    frequency_table(
        "Table 4: workload model — No-Cache",
        Scheme::NoCache,
        &WorkloadParams::default(),
    )
}

/// Table 5: operation frequencies of the Software-Flush scheme.
pub fn table5() -> Table {
    frequency_table(
        "Table 5: workload model — Software-Flush",
        Scheme::SoftwareFlush,
        &WorkloadParams::default(),
    )
}

/// Table 6: operation frequencies of the Dragon scheme.
pub fn table6() -> Table {
    frequency_table(
        "Table 6: workload model — Dragon",
        Scheme::Dragon,
        &WorkloadParams::default(),
    )
}

/// Table 7: low/middle/high parameter ranges.
pub fn table7() -> Table {
    let mut t = Table::new(
        "Table 7: parameter ranges",
        vec![
            "parameter".into(),
            "low".into(),
            "middle".into(),
            "high".into(),
        ],
    );
    for row in TABLE7_RANGES.iter() {
        if row.id == ParamId::Apl {
            // The paper tabulates 1/apl.
            t.push_row(vec![
                "1/apl".into(),
                fmt_f(1.0 / row.low),
                fmt_f(1.0 / row.middle),
                fmt_f(1.0 / row.high),
            ]);
        } else {
            t.push_row(vec![
                row.id.name().into(),
                fmt_f(row.low),
                fmt_f(row.middle),
                fmt_f(row.high),
            ]);
        }
    }
    t
}

/// Table 8: sensitivity to parameter variation — percent change in
/// execution time when each parameter moves from its low to its high
/// value, all others held at middle.
pub fn table8(processors: u32) -> Table {
    let s = sensitivity_table(processors).expect("positive processor count");
    let mut t = Table::new(
        format!(
            "Table 8: sensitivity to parameter variation (% change in execution time, \
             low → high, {processors}-processor bus)"
        ),
        vec![
            "parameter".into(),
            "Base".into(),
            "No-Cache".into(),
            "Software-Flush".into(),
            "Dragon".into(),
        ],
    );
    for param in ParamId::ALL {
        let cell = |scheme| {
            let c = s.cell(param, scheme).expect("full table");
            format!("{:+.1}", c.percent_change())
        };
        t.push_row(vec![
            param.name().to_string(),
            cell(Scheme::Base),
            cell(Scheme::NoCache),
            cell(Scheme::SoftwareFlush),
            cell(Scheme::Dragon),
        ]);
    }
    t.notes
        .push("apl varies low→high as 25→1 (the paper tabulates 1/apl = 0.04→1.0)".into());
    t
}

/// Table 9: system model for a multistage network with `stages` stages.
pub fn table9(stages: u32) -> Table {
    let sys = NetworkSystemModel::new(stages);
    let mut t = Table::new(
        format!(
            "Table 9: system model for a network with n = {stages} stages ({} processors)",
            sys.processors()
        ),
        vec!["operation".into(), "cpu".into(), "network".into()],
    );
    for op in Operation::ALL {
        if let Some(c) = sys.cost(op) {
            t.push_row(vec![
                op.name().to_string(),
                c.cpu().to_string(),
                c.interconnect().to_string(),
            ]);
        }
    }
    t.notes.push(
        "snoopy operations (broadcast, cache-sourced miss, cycle steal) are undefined".into(),
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_all_eleven_operations() {
        let t = table1();
        assert_eq!(t.rows.len(), 11);
        assert!(t.render().contains("write broadcast"));
    }

    #[test]
    fn table2_lists_all_parameters() {
        assert_eq!(table2().rows.len(), 11);
    }

    #[test]
    fn frequency_tables_include_instruction_row() {
        for t in [table3(), table4(), table5(), table6()] {
            assert!(t.rows.iter().any(|r| r[0] == "instruction execution"));
        }
    }

    #[test]
    fn table4_has_throughs() {
        let t = table4();
        assert!(t.rows.iter().any(|r| r[0] == "read through"));
        assert!(t.rows.iter().any(|r| r[0] == "write through"));
    }

    #[test]
    fn table5_has_flushes() {
        let t = table5();
        assert!(t.rows.iter().any(|r| r[0] == "clean flush"));
        assert!(t.rows.iter().any(|r| r[0] == "dirty flush"));
    }

    #[test]
    fn table7_prints_inverse_apl() {
        let t = table7();
        let row = t.rows.iter().find(|r| r[0] == "1/apl").expect("1/apl row");
        assert_eq!(row[1], "0.0400");
        assert_eq!(row[3], "1.0000");
    }

    #[test]
    fn table8_is_complete_and_shows_apl_dominance() {
        let t = table8(16);
        assert_eq!(t.rows.len(), 11);
        let apl_row = t.rows.iter().find(|r| r[0] == "apl").unwrap();
        let sf: f64 = apl_row[3].parse().unwrap();
        // apl must be a huge effect for Software-Flush, zero elsewhere.
        assert!(sf > 50.0, "apl effect on SF: {sf}");
        assert_eq!(apl_row[1], "+0.0");
        assert_eq!(apl_row[4], "+0.0");
    }

    #[test]
    fn table9_excludes_snoopy_ops() {
        let t = table9(8);
        assert_eq!(t.rows.len(), 7);
        assert!(!t.render().contains("write broadcast"));
    }
}
