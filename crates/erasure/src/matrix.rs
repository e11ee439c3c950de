//! Dense matrices over GF(2^8).
//!
//! Row-major storage; dimensions here are at most 256×256 (bounded by the
//! field size), so simple dense algorithms are the right tool — run on
//! the gf256 bulk kernels: products are one [`mul_matrix`] call and
//! inversion is Gauss–Jordan with SIMD row operations.

use core::fmt;

use peerback_gf256::{mul_add_slice, mul_matrix, mul_slice_in_place, Gf256};

use crate::ErasureError;

/// A dense matrix over GF(2^8).
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Gf256>,
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zero(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be nonzero");
        Matrix {
            rows,
            cols,
            data: vec![Gf256::ZERO; rows * cols],
        }
    }

    /// Creates the `size × size` identity matrix.
    pub fn identity(size: usize) -> Self {
        let mut m = Matrix::zero(size, size);
        for i in 0..size {
            m.set(i, i, Gf256::ONE);
        }
        m
    }

    /// Builds a matrix from a row-major closure.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Gf256) -> Self {
        let mut m = Matrix::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, f(r, c));
            }
        }
        m
    }

    /// Builds a `rows × cols` Vandermonde matrix — entry
    /// `(r, c) = point_r ^ c` — over distinct evaluation points. Rows
    /// `0..255` use the generator powers `g^r`; row 255 (only reachable
    /// when `rows == 256`) uses the remaining field element, `0`. With all
    /// points distinct, any `cols` rows are linearly independent, which is
    /// the property the erasure code relies on.
    ///
    /// # Panics
    ///
    /// Panics if `rows > 256` (GF(2^8) has only 256 distinct points).
    pub fn vandermonde(rows: usize, cols: usize) -> Self {
        assert!(rows <= 256, "at most 256 distinct points exist in GF(2^8)");
        let point = |r: usize| if r < 255 { Gf256::exp(r) } else { Gf256::ZERO };
        Matrix::from_fn(rows, cols, |r, c| point(r).pow(c as u64))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Gf256 {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: Gf256) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = value;
    }

    /// Borrows a whole row.
    #[inline]
    pub fn row(&self, row: usize) -> &[Gf256] {
        debug_assert!(row < self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Matrix product `self × rhs`: row `r` of the result is
    /// `Σ_j self[r][j] · rhs.row(j)`, one [`mul_matrix`] call.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree, or if `self` has more
    /// than 256 rows or columns (the matrix kernel's limit; no matrix
    /// over GF(2^8) the codec builds comes near it).
    pub fn multiply(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "inner dimensions must agree for multiplication"
        );
        let rhs_bytes = rhs.to_bytes();
        let rhs_rows: Vec<&[u8]> = rhs_bytes.chunks_exact(rhs.cols).collect();
        let mut out = vec![0u8; self.rows * rhs.cols];
        let mut out_rows: Vec<&mut [u8]> = out.chunks_exact_mut(rhs.cols).collect();
        mul_matrix(&self.to_bytes(), &rhs_rows, &mut out_rows);
        Matrix::from_bytes(self.rows, rhs.cols, out)
    }

    /// The entries as raw bytes, row-major — the form the gf256 kernels
    /// take.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        self.data.iter().map(|g| g.value()).collect()
    }

    /// Wraps row-major bytes.
    fn from_bytes(rows: usize, cols: usize, bytes: impl IntoIterator<Item = u8>) -> Matrix {
        let data: Vec<Gf256> = bytes.into_iter().map(Gf256).collect();
        assert_eq!(data.len(), rows * cols);
        Matrix { rows, cols, data }
    }

    /// Returns a new matrix made of the given rows of `self`, in order.
    ///
    /// # Panics
    ///
    /// Panics if any row index is out of range.
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        let mut out = Matrix::zero(rows.len(), self.cols);
        for (dst, &src) in rows.iter().enumerate() {
            assert!(src < self.rows, "row index {src} out of range");
            for c in 0..self.cols {
                out.set(dst, c, self.get(src, c));
            }
        }
        out
    }

    /// Returns the sub-matrix spanning `row_range × col_range` half-open.
    pub fn submatrix(
        &self,
        rows: core::ops::Range<usize>,
        cols: core::ops::Range<usize>,
    ) -> Matrix {
        assert!(rows.end <= self.rows && cols.end <= self.cols);
        Matrix::from_fn(rows.len(), cols.len(), |r, c| {
            self.get(rows.start + r, cols.start + c)
        })
    }

    /// Inverts the matrix by Gauss–Jordan elimination with partial
    /// pivoting (pivot search only needs a nonzero element in an exact
    /// field), on an augmented `[A | I]` byte buffer whose row operations
    /// are the gf256 slice kernels. When column `col` is eliminated the
    /// pivot row is zero left of it, so each operation starts at the last
    /// 32-byte vector boundary at or before `col`; with rows padded to
    /// whole vectors, none ends in a scalar tail. The inverse is unique
    /// and the arithmetic exact, so this is the same matrix any
    /// elimination order yields.
    ///
    /// # Errors
    ///
    /// [`ErasureError::SingularMatrix`] if no inverse exists.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn inverse(&self) -> Result<Matrix, ErasureError> {
        assert_eq!(self.rows, self.cols, "only square matrices can be inverted");
        const VECTOR: usize = 32;
        let n = self.rows;
        let width = (2 * n).next_multiple_of(VECTOR);
        let mut aug = vec![0u8; n * width];
        for (r, row) in aug.chunks_exact_mut(width).enumerate() {
            for (dst, src) in row.iter_mut().zip(self.row(r)) {
                *dst = src.value();
            }
            row[n + r] = 1;
        }

        for col in 0..n {
            // Find a pivot row at or below `col`.
            let pivot = (col..n)
                .find(|&r| aug[r * width + col] != 0)
                .ok_or(ErasureError::SingularMatrix)?;
            if pivot != col {
                let (head, tail) = aug.split_at_mut(pivot * width);
                head[col * width..(col + 1) * width].swap_with_slice(&mut tail[..width]);
            }
            // Normalise the pivot row, then eliminate the column
            // everywhere else (`-=` is `+=` in characteristic 2).
            let from = col / VECTOR * VECTOR;
            let (above, rest) = aug.split_at_mut(col * width);
            let (pivot_row, below) = rest.split_at_mut(width);
            let scale = Gf256(pivot_row[col]).inv().value();
            let pivot_row = &mut pivot_row[from..];
            mul_slice_in_place(pivot_row, scale);
            for row in above
                .chunks_exact_mut(width)
                .chain(below.chunks_exact_mut(width))
            {
                let factor = row[col];
                if factor != 0 {
                    mul_add_slice(&mut row[from..], pivot_row, factor);
                }
            }
        }
        let inverse = aug
            .chunks_exact(width)
            .flat_map(|row| row[n..2 * n].iter().copied());
        Ok(Matrix::from_bytes(n, n, inverse))
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:02x} ", self.get(r, c).value())?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The scalar Gauss–Jordan `Matrix::inverse` ran before it moved to
    /// the byte kernels: the oracle for inverses and for singularity.
    pub(crate) fn inverse_reference(m: &Matrix) -> Result<Matrix, ErasureError> {
        let n = m.rows;
        let mut work = m.clone();
        let mut inv = Matrix::identity(n);
        let swap = |m: &mut Matrix, a: usize, b: usize| {
            for c in 0..n {
                let (x, y) = (m.get(a, c), m.get(b, c));
                m.set(a, c, y);
                m.set(b, c, x);
            }
        };
        let add_scaled = |m: &mut Matrix, dst: usize, src: usize, factor: Gf256| {
            for c in 0..n {
                let v = m.get(dst, c) + m.get(src, c) * factor;
                m.set(dst, c, v);
            }
        };
        for col in 0..n {
            let pivot = (col..n)
                .find(|&r| !work.get(r, col).is_zero())
                .ok_or(ErasureError::SingularMatrix)?;
            swap(&mut work, pivot, col);
            swap(&mut inv, pivot, col);
            let scale = work.get(col, col).inv();
            for c in 0..n {
                work.set(col, c, work.get(col, c) * scale);
                inv.set(col, c, inv.get(col, c) * scale);
            }
            for r in (0..n).filter(|&r| r != col) {
                let factor = work.get(r, col);
                add_scaled(&mut work, r, col, factor);
                add_scaled(&mut inv, r, col, factor);
            }
        }
        Ok(inv)
    }

    /// The schoolbook product `Matrix::multiply` replaced.
    fn multiply_reference(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows, b.cols, |r, c| {
            (0..a.cols).fold(Gf256::ZERO, |acc, j| acc + a.get(r, j) * b.get(j, c))
        })
    }

    /// A seeded pseudo-random matrix with roughly `zero_per_256 / 256`
    /// zero entries.
    fn random_matrix(n: usize, seed: u64, zero_per_256: u64) -> Matrix {
        let mut state = seed | 1;
        Matrix::from_fn(n, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = state >> 33;
            if x % 256 < zero_per_256 {
                Gf256::ZERO
            } else {
                Gf256((x >> 8) as u8)
            }
        })
    }

    #[test]
    fn inverse_matches_the_scalar_reference_including_singularity() {
        let mut singular = 0;
        for (i, n) in [1usize, 2, 3, 5, 8, 17, 33, 64, 128]
            .into_iter()
            .enumerate()
        {
            for (trial, zeros) in [0u64, 128, 230, 250].into_iter().enumerate() {
                let m = random_matrix(n, (i * 10 + trial) as u64, zeros);
                let expect = inverse_reference(&m);
                singular += usize::from(expect.is_err());
                assert_eq!(m.inverse(), expect, "n={n} zeros={zeros}");
            }
            // Duplicate rows: singular with a pivot that is nonzero
            // until late in the elimination.
            if n > 1 {
                let mut m = random_matrix(n, i as u64, 0);
                for c in 0..n {
                    let v = m.get(0, c);
                    m.set(n - 1, c, v);
                }
                assert_eq!(m.inverse(), Err(ErasureError::SingularMatrix), "n={n}");
                assert_eq!(inverse_reference(&m), Err(ErasureError::SingularMatrix));
            }
        }
        assert!(
            singular > 0,
            "the sparse trials must include singular matrices"
        );
    }

    #[test]
    fn multiply_matches_the_schoolbook_product() {
        let a = Matrix::vandermonde(40, 17);
        let b = Matrix::from_fn(17, 9, |r, c| Gf256((r * 9 + c * 31) as u8));
        assert_eq!(a.multiply(&b), multiply_reference(&a, &b));
    }

    #[test]
    fn identity_multiplication_is_neutral() {
        let m = Matrix::vandermonde(4, 4);
        let id = Matrix::identity(4);
        assert_eq!(m.multiply(&id), m);
        assert_eq!(id.multiply(&m), m);
    }

    #[test]
    fn vandermonde_entries_are_powers() {
        let m = Matrix::vandermonde(5, 3);
        for r in 0..5 {
            for c in 0..3 {
                assert_eq!(m.get(r, c), Gf256::exp(r).pow(c as u64));
            }
        }
        // First column is all ones (x^0).
        for r in 0..5 {
            assert_eq!(m.get(r, 0), Gf256::ONE);
        }
    }

    #[test]
    fn inverse_times_original_is_identity() {
        for size in 1..=8 {
            let m = Matrix::vandermonde(size, size);
            let inv = m.inverse().expect("vandermonde is invertible");
            assert_eq!(m.multiply(&inv), Matrix::identity(size), "size={size}");
            assert_eq!(inv.multiply(&m), Matrix::identity(size), "size={size}");
        }
    }

    #[test]
    fn singular_matrix_is_detected() {
        // Two identical rows.
        let mut m = Matrix::vandermonde(3, 3);
        for c in 0..3 {
            let v = m.get(0, c);
            m.set(1, c, v);
        }
        assert_eq!(m.inverse(), Err(ErasureError::SingularMatrix));
    }

    #[test]
    fn zero_matrix_is_singular() {
        assert_eq!(
            Matrix::zero(2, 2).inverse(),
            Err(ErasureError::SingularMatrix)
        );
    }

    #[test]
    fn select_rows_preserves_content_and_order() {
        let m = Matrix::vandermonde(6, 3);
        let sel = m.select_rows(&[4, 1]);
        assert_eq!(sel.rows(), 2);
        assert_eq!(sel.row(0), m.row(4));
        assert_eq!(sel.row(1), m.row(1));
    }

    #[test]
    fn submatrix_extracts_block() {
        let m = Matrix::from_fn(4, 4, |r, c| Gf256::new((r * 4 + c) as u8));
        let sub = m.submatrix(1..3, 2..4);
        assert_eq!(sub.rows(), 2);
        assert_eq!(sub.cols(), 2);
        assert_eq!(sub.get(0, 0), m.get(1, 2));
        assert_eq!(sub.get(0, 1), m.get(1, 3));
        assert_eq!(sub.get(1, 0), m.get(2, 2));
        assert_eq!(sub.get(1, 1), m.get(2, 3));
    }

    #[test]
    fn multiplication_associates() {
        let a = Matrix::vandermonde(3, 3);
        let b = Matrix::vandermonde(3, 3).inverse().unwrap();
        let c = Matrix::from_fn(3, 3, |r, c| Gf256::new((r + 7 * c + 1) as u8));
        assert_eq!(a.multiply(&b).multiply(&c), a.multiply(&b.multiply(&c)));
    }

    #[test]
    #[should_panic(expected = "dimensions must be nonzero")]
    fn zero_dimension_panics() {
        let _ = Matrix::zero(0, 3);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = Matrix::zero(2, 3);
        let b = Matrix::zero(2, 3);
        let _ = a.multiply(&b);
    }

    #[test]
    fn any_square_subset_of_vandermonde_rows_is_invertible() {
        // The defining property the codec depends on: any k rows of an
        // n×k Vandermonde matrix with distinct points form an invertible
        // matrix. Exhaustive over 3-subsets of 8 rows.
        let m = Matrix::vandermonde(8, 3);
        for a in 0..8 {
            for b in (a + 1)..8 {
                for c in (b + 1)..8 {
                    let sub = m.select_rows(&[a, b, c]);
                    assert!(sub.inverse().is_ok(), "rows {a},{b},{c}");
                }
            }
        }
    }
}
