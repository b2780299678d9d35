//! ASCII table/series rendering for experiment output, plus the
//! determinism digest used to compare runs bit-for-bit.

use edm_cluster::{OsdWearSummary, ResponseWindow, RunReport};
use edm_snap::SnapWriter;

/// FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hashes every field of a [`RunReport`] — floats by bit pattern — into a
/// single value. Two runs are bit-identical iff their digests match, so
/// this is the "resume equals uninterrupted" acceptance check in one
/// number (printed by `edm-sim`, asserted by `scripts/check.sh`).
pub fn report_digest(r: &RunReport) -> u64 {
    // Exhaustive destructures (no `..`): a field added to the report
    // fails the build here until the digest covers it.
    let RunReport {
        trace,
        policy,
        osds,
        completed_ops,
        duration_us,
        mean_response_us,
        response_percentiles_us: (p50, p95, p99),
        response_windows,
        per_osd,
        moved_objects,
        remap_entries,
        total_objects,
        migrations_triggered,
        failed_osds,
        degraded_ops,
        lost_ops,
        rebuilt_objects,
    } = r;
    let mut w = SnapWriter::new();
    w.put_str(trace);
    w.put_str(policy);
    w.put_u32(*osds);
    w.put_u64(*completed_ops);
    w.put_u64(*duration_us);
    w.put_f64(*mean_response_us);
    w.put_u64(*p50);
    w.put_u64(*p95);
    w.put_u64(*p99);
    w.put_u64(response_windows.len() as u64);
    for win in response_windows {
        let ResponseWindow {
            start_us,
            completed_ops,
            mean_response_us,
        } = win;
        w.put_u64(*start_us);
        w.put_u64(*completed_ops);
        w.put_f64(*mean_response_us);
    }
    w.put_u64(per_osd.len() as u64);
    for o in per_osd {
        let OsdWearSummary {
            osd,
            erase_count,
            write_pages,
            gc_page_moves,
            utilization,
            busy_us,
            peak_queue_depth,
        } = o;
        w.put_u32(*osd);
        w.put_u64(*erase_count);
        w.put_u64(*write_pages);
        w.put_u64(*gc_page_moves);
        w.put_f64(*utilization);
        w.put_u64(*busy_us);
        w.put_u64(*peak_queue_depth);
    }
    w.put_u64(*moved_objects);
    w.put_u64(*remap_entries);
    w.put_u64(*total_objects);
    w.put_u64(*migrations_triggered);
    w.put_u64(failed_osds.len() as u64);
    for f in failed_osds {
        w.put_u32(*f);
    }
    w.put_u64(*degraded_ops);
    w.put_u64(*lost_ops);
    w.put_u64(*rebuilt_objects);
    fnv1a(&w.into_bytes())
}

/// Renders a table with a header row; columns sized to content.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {cell:<w$} |"));
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('|');
    for w in &widths {
        out.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Formats a ratio as a signed percentage ("+12.3%" / "-4.0%").
pub fn signed_pct(ratio: f64) -> String {
    format!("{:+.1}%", ratio * 100.0)
}

/// Formats a float with thousands grouping for counts.
pub fn grouped(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "12345".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].starts_with("|--"));
        // All lines same width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    fn signed_pct_formats_both_signs() {
        assert_eq!(signed_pct(0.123), "+12.3%");
        assert_eq!(signed_pct(-0.04), "-4.0%");
        assert_eq!(signed_pct(0.0), "+0.0%");
    }

    #[test]
    fn grouped_inserts_commas() {
        assert_eq!(grouped(0), "0");
        assert_eq!(grouped(999), "999");
        assert_eq!(grouped(1000), "1,000");
        assert_eq!(grouped(1234567), "1,234,567");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_panic() {
        render_table(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn report_digest_is_stable_and_field_sensitive() {
        let r = crate::Scenario::parse("trace deasna\nscale 0.001\nosds 8\n")
            .unwrap()
            .run(&mut edm_obs::NoopRecorder, None)
            .unwrap()
            .0;
        assert_eq!(report_digest(&r), report_digest(&r.clone()));
        let mut tweaked = r.clone();
        tweaked.completed_ops += 1;
        assert_ne!(report_digest(&r), report_digest(&tweaked));
        let mut tweaked = r.clone();
        tweaked.mean_response_us += 1e-9;
        assert_ne!(report_digest(&r), report_digest(&tweaked));
        let mut tweaked = r.clone();
        tweaked.per_osd[0].erase_count ^= 1;
        assert_ne!(report_digest(&r), report_digest(&tweaked));
    }
}
