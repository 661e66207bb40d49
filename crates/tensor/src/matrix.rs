use crate::ShapeError;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f32` matrix.
///
/// `Matrix` is the workhorse type of the workspace: activations, weights,
/// attention scores and masks-as-floats are all `Matrix` values. Data is
/// stored contiguously in row-major order, so `row(i)` is a contiguous
/// slice.
///
/// # Example
///
/// ```
/// use dota_tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
/// assert_eq!(m[(1, 2)], 5.0);
/// assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Example
    ///
    /// ```
    /// # use dota_tensor::Matrix;
    /// let m = Matrix::zeros(2, 2);
    /// assert_eq!(m.iter().sum::<f32>(), 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Creates a `rows x cols` matrix with every element equal to `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n x n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// An empty `0 x cols` matrix with room for `rows` rows: pushing up to
    /// that many with [`Matrix::push_row`] never reallocates.
    pub fn with_row_capacity(rows: usize, cols: usize) -> Self {
        Self {
            rows: 0,
            cols,
            data: Vec::with_capacity(rows * cols),
        }
    }

    /// Creates a matrix by calling `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from a row-major `Vec`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new("from_vec", (rows, cols), (data.len(), 1)));
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the rows have differing lengths or the
    /// input is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Result<Self, ShapeError> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        if nrows == 0 || ncols == 0 {
            return Err(ShapeError::new("from_rows", (nrows, ncols), (0, 0)));
        }
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            if row.len() != ncols {
                return Err(ShapeError::new("from_rows", (nrows, ncols), (1, row.len())));
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as a `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        let cols = self.cols;
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Column `c` collected into a new `Vec`.
    ///
    /// Allocates per call — hot paths should use [`Matrix::col_iter`]
    /// (a strided view over the row-major storage) instead.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        self.col_iter(c).collect()
    }

    /// Iterator over column `c` without allocating: a stride-`cols` walk
    /// of the row-major storage.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col_iter(&self, c: usize) -> impl Iterator<Item = f32> + '_ {
        assert!(c < self.cols, "col index {c} out of bounds ({})", self.cols);
        self.data
            .get(c..)
            .unwrap_or(&[]) // rows == 0: nothing to walk
            .iter()
            .step_by(self.cols)
            .copied()
    }

    /// The underlying row-major data slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The underlying row-major data slice, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the underlying row-major `Vec`.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Iterator over all elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Mutable iterator over all elements in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f32> {
        self.data.iter_mut()
    }

    /// Iterator over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns the transpose as a new matrix.
    ///
    /// Tiled so both the row reads and the strided writes stay within one
    /// cache-sized block at a time.
    pub fn transpose(&self) -> Matrix {
        const TB: usize = 32;
        let mut out = Matrix::zeros(self.cols, self.rows);
        for rb in (0..self.rows).step_by(TB) {
            let re = (rb + TB).min(self.rows);
            for cb in (0..self.cols).step_by(TB) {
                let ce = (cb + TB).min(self.cols);
                for r in rb..re {
                    let row = &self.data[r * self.cols..(r + 1) * self.cols];
                    for c in cb..ce {
                        out.data[c * self.rows + r] = row[c];
                    }
                }
            }
        }
        out
    }

    /// Returns a new matrix with `f` applied element-wise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` element-wise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise combination of two equally-shaped matrices.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the shapes differ.
    pub fn zip_map(
        &self,
        other: &Matrix,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Matrix, ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new("zip_map", self.shape(), other.shape()));
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new("add", self.shape(), other.shape()));
        }
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the shapes differ.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new("sub", self.shape(), other.shape()));
        }
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the shapes differ.
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new("hadamard", self.shape(), other.shape()));
        }
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by `s`, returning a new matrix.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Extracts rows `r0..r1` as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `r0 > r1` or `r1 > self.rows()`.
    pub fn slice_rows(&self, r0: usize, r1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows, "invalid row range {r0}..{r1}");
        Matrix {
            rows: r1 - r0,
            cols: self.cols,
            data: self.data[r0 * self.cols..r1 * self.cols].to_vec(),
        }
    }

    /// Extracts columns `c0..c1` as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `c0 > c1` or `c1 > self.cols()`.
    pub fn slice_cols(&self, c0: usize, c1: usize) -> Matrix {
        assert!(c0 <= c1 && c1 <= self.cols, "invalid col range {c0}..{c1}");
        let width = c1 - c0;
        let mut data = Vec::with_capacity(self.rows * width);
        for r in 0..self.rows {
            data.extend_from_slice(&self.data[r * self.cols + c0..r * self.cols + c1]);
        }
        Matrix {
            rows: self.rows,
            cols: width,
            data,
        }
    }

    /// Concatenates matrices horizontally (same row count).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the inputs disagree on row count or the
    /// list is empty.
    pub fn hcat(parts: &[&Matrix]) -> Result<Matrix, ShapeError> {
        let first = parts
            .first()
            .ok_or(ShapeError::new("hcat", (0, 0), (0, 0)))?;
        let rows = first.rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        for p in parts {
            if p.rows != rows {
                return Err(ShapeError::new("hcat", (rows, cols), p.shape()));
            }
        }
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for p in parts {
                out.row_mut(r)[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        Ok(out)
    }

    /// Concatenates matrices vertically (same column count).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the inputs disagree on column count or the
    /// list is empty.
    pub fn vcat(parts: &[&Matrix]) -> Result<Matrix, ShapeError> {
        let first = parts
            .first()
            .ok_or(ShapeError::new("vcat", (0, 0), (0, 0)))?;
        let cols = first.cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            if p.cols != cols {
                return Err(ShapeError::new("vcat", (rows, cols), p.shape()));
            }
            data.extend_from_slice(&p.data);
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Appends `row` as the new last row, in place: amortized `O(cols)`,
    /// the storage doubles like a `Vec`'s.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "pushed row width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Rows the storage holds before [`Matrix::push_row`] must reallocate.
    pub fn row_capacity(&self) -> usize {
        self.data.capacity().checked_div(self.cols).unwrap_or(0)
    }

    /// Takes the shape `rows x cols` in the storage it already has, so a
    /// buffer reshaped to sizes no larger than its largest so far allocates
    /// nothing. For a buffer whose every element is about to be written (a
    /// product's output, a layer norm's): the elements are whatever the
    /// storage held, zeros where it grew — not a zero matrix.
    pub fn reuse_as(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements; `0.0` for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element; `f32::NEG_INFINITY` for an empty matrix.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element; `f32::INFINITY` for an empty matrix.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum absolute element; `0.0` for an empty matrix.
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, x| m.max(x.abs()))
    }

    /// `true` if the matrices agree element-wise within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for r in 0..show {
            let row = self.row(r);
            let cells: Vec<String> = row.iter().take(8).map(|x| format!("{x:.4}")).collect();
            let ellipsis = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", cells.join(", "), ellipsis)?;
        }
        if self.rows > show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_filled() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert!(z.iter().all(|&x| x == 0.0));
        let f = Matrix::filled(2, 2, 7.5);
        assert!(f.iter().all(|&x| x == 7.5));
    }

    #[test]
    fn identity_diagonal() {
        let i = Matrix::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 5]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let ok = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!(ok.is_ok());
        let bad = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
        assert!(bad.is_err());
        let empty: Result<Matrix, _> = Matrix::from_rows(&[]);
        assert!(empty.is_err());
    }

    #[test]
    fn indexing_row_major() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
        assert_eq!(m.col(2), vec![2.0, 5.0]);
    }

    #[test]
    fn col_iter_matches_col() {
        let m = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
        for c in 0..3 {
            let viewed: Vec<f32> = m.col_iter(c).collect();
            assert_eq!(viewed, m.col(c));
        }
        let empty = Matrix::from_vec(0, 3, vec![]).unwrap();
        assert_eq!(empty.col_iter(2).count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        let t = m.transpose();
        assert_eq!(t.shape(), (5, 3));
        assert_eq!(t.transpose(), m);
        assert_eq!(t[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn add_sub_hadamard() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        assert_eq!(a.add(&b).unwrap().row(0), &[6.0, 8.0]);
        assert_eq!(b.sub(&a).unwrap().row(1), &[4.0, 4.0]);
        assert_eq!(a.hadamard(&b).unwrap().row(0), &[5.0, 12.0]);
        let c = Matrix::zeros(3, 2);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn hcat_vcat() {
        let a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 3, 2.0);
        let h = Matrix::hcat(&[&a, &b]).unwrap();
        assert_eq!(h.shape(), (2, 5));
        assert_eq!(h.row(0), &[1.0, 1.0, 2.0, 2.0, 2.0]);

        let c = Matrix::filled(1, 2, 3.0);
        let v = Matrix::vcat(&[&a, &c]).unwrap();
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[3.0, 3.0]);

        assert!(Matrix::hcat(&[&a, &c]).is_err());
        let d = Matrix::filled(1, 3, 0.0);
        assert!(Matrix::vcat(&[&a, &d]).is_err());
    }

    #[test]
    fn push_row_matches_vcat() {
        let mut m = Matrix::zeros(0, 3);
        let mut want = Matrix::zeros(0, 3);
        for r in 0..5 {
            let row = Matrix::from_fn(1, 3, |_, c| (r * 3 + c) as f32);
            m.push_row(row.row(0));
            want = Matrix::vcat(&[&want, &row]).unwrap();
            assert_eq!(m, want);
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn push_row_checks_width() {
        Matrix::zeros(0, 3).push_row(&[1.0, 2.0]);
    }

    #[test]
    fn slices() {
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let rows = m.slice_rows(1, 3);
        assert_eq!(rows.shape(), (2, 4));
        assert_eq!(rows[(0, 0)], 4.0);
        let cols = m.slice_cols(2, 4);
        assert_eq!(cols.shape(), (4, 2));
        assert_eq!(cols[(0, 0)], 2.0);
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_rows(&[&[-1.0, 2.0], &[3.0, -4.0]]).unwrap();
        assert_eq!(m.sum(), 0.0);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.max(), 3.0);
        assert_eq!(m.min(), -4.0);
        assert_eq!(m.abs_max(), 4.0);
        assert!((m.frobenius_norm() - (30.0_f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Matrix::filled(2, 2, 1.0);
        let mut b = a.clone();
        b[(0, 0)] = 1.0005;
        assert!(a.approx_eq(&b, 1e-3));
        assert!(!a.approx_eq(&b, 1e-5));
        assert!(!a.approx_eq(&Matrix::zeros(2, 3), 1.0));
    }

    #[test]
    fn map_and_zip() {
        let a = Matrix::filled(2, 2, 2.0);
        assert_eq!(a.map(|x| x * x).sum(), 16.0);
        assert_eq!(a.scale(0.5).sum(), 4.0);
        let mut b = a.clone();
        b.map_inplace(|x| x + 1.0);
        assert_eq!(b.sum(), 12.0);
    }

    #[test]
    fn debug_nonempty() {
        let m = Matrix::zeros(1, 1);
        assert!(!format!("{m:?}").is_empty());
    }

    #[test]
    fn rows_iter_covers_all_rows() {
        let m = Matrix::from_fn(3, 2, |r, _| r as f32);
        let rows: Vec<&[f32]> = m.rows_iter().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], &[2.0, 2.0]);
    }
}
