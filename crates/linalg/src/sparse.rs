//! Conductance stamping into compressed sparse row (CSR) matrices.
//!
//! The nodal matrix of an `R×C` crossbar has `2·R·C` unknowns but at most
//! four off-diagonal entries per row (wire neighbours plus the synapse
//! partner node). [`CooBuilder`] assembles it one two-terminal conductance
//! at a time, the nodal-analysis "stamping" idiom; `xbar-sim`'s exact
//! solver densifies the result for LU.

use std::collections::BTreeMap;

/// Triplet-based builder for a [`CsrMatrix`]; duplicate entries accumulate,
/// matching the "stamping" idiom of circuit nodal analysis.
#[derive(Debug, Clone, Default)]
pub struct CooBuilder {
    n: usize,
    entries: BTreeMap<(usize, usize), f64>,
}

impl CooBuilder {
    /// Creates a builder for an `n × n` matrix.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            entries: BTreeMap::new(),
        }
    }

    /// Adds `v` to entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.n && c < self.n, "entry ({r}, {c}) out of bounds");
        *self.entries.entry((r, c)).or_insert(0.0) += v;
    }

    /// Stamps a two-terminal conductance `g` between nodes `a` and `b`
    /// (`None` meaning ground), the fundamental nodal-analysis operation.
    pub fn stamp_conductance(&mut self, a: Option<usize>, b: Option<usize>, g: f64) {
        match (a, b) {
            (Some(a), Some(b)) => {
                self.add(a, a, g);
                self.add(b, b, g);
                self.add(a, b, -g);
                self.add(b, a, -g);
            }
            (Some(a), None) | (None, Some(a)) => self.add(a, a, g),
            (None, None) => {}
        }
    }

    /// Finalises into CSR form.
    pub fn build(self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.n + 1];
        for &(r, _) in self.entries.keys() {
            row_ptr[r + 1] += 1;
        }
        for i in 0..self.n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let nnz = self.entries.len();
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        // BTreeMap iterates in (row, col) order, which is CSR order.
        for ((_, c), v) in self.entries {
            col_idx.push(c);
            values.push(v);
        }
        CsrMatrix {
            n: self.n,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// A square sparse matrix in compressed sparse row format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Returns `(column_indices, values)` of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// Converts to a dense matrix (tests and small-tile exact solves only).
    pub fn to_dense(&self) -> crate::dense::DenseMatrix {
        let mut d = crate::dense::DenseMatrix::zeros(self.n, self.n);
        for r in 0..self.n {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                d.add_at(r, c, v);
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        let mut b = CooBuilder::new(3);
        b.add(0, 0, 2.0);
        b.add(1, 1, 3.0);
        b.add(2, 2, 4.0);
        b.add(0, 1, -1.0);
        b.add(1, 0, -1.0);
        b.add(0, 1, 0.5); // duplicate accumulates
        b.build()
    }

    #[test]
    fn builder_accumulates_duplicates() {
        let m = sample();
        let (cols, vals) = m.row(0);
        assert_eq!(cols, &[0, 1]);
        assert_eq!(vals, &[2.0, -0.5]);
        assert_eq!(m.row(1), (&[0usize, 1][..], &[-1.0, 3.0][..]));
        assert_eq!(m.row(2), (&[2usize][..], &[4.0][..]));
    }

    #[test]
    fn to_dense_places_every_entry() {
        let d = sample().to_dense();
        let expect = [[2.0, -0.5, 0.0], [-1.0, 3.0, 0.0], [0.0, 0.0, 4.0]];
        for (r, row) in expect.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                assert_eq!(d.at(r, c), v, "({r}, {c})");
            }
        }
    }

    #[test]
    fn stamp_conductance_is_symmetric() {
        let mut b = CooBuilder::new(2);
        b.stamp_conductance(Some(0), Some(1), 5.0);
        b.stamp_conductance(Some(1), None, 2.0);
        let m = b.build();
        assert_eq!(m.row(0), (&[0usize, 1][..], &[5.0, -5.0][..]));
        assert_eq!(m.row(1), (&[0usize, 1][..], &[-5.0, 7.0][..]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn builder_bounds_checked() {
        CooBuilder::new(1).add(0, 1, 1.0);
    }
}
