/* Compiled arithmetic kernel: the same interface as qcff/_kernels/pure.py.
 *
 * Field elements are ints in [0, q). Polynomials are coefficient sequences
 * (lists or tuples), ascending degree, no trailing zeros, empty = 0; every
 * result is a new list. Each call copies its polynomials into int buffers,
 * works there and copies the result out.
 *
 * FieldKernel(p, e, exp, log) takes the exp/log tables of F_q, q = p**e,
 * and builds negation and addition from p and e, digit by digit on the
 * encodings. The loops work on discrete logs, as the pure kernel's do: exp2
 * is the exp table repeated twice, so exp2[la + lb] is a product with no
 * step mod w. Each step adds one product into one coefficient, by the q*q
 * addition table for q <= 256 and digit by digit otherwise.
 *
 * papply(rows, h) returns the sum of h_i * rows[i] in one buffer: on a
 * Frobenius table (rows[i] = T**(q*i) mod f) that is h**q mod f, so one
 * application of the q-th power map is one call. Its n rows, like h, hold
 * at most n coefficients each; a longer one raises ValueError.
 *
 * Every int read from Python is checked to lie in its table's range, so no
 * lookup can leave its table. Buffers come from PyMem, so tracemalloc sees
 * them.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

typedef struct {
    PyObject_HEAD
    int p, e, q, w;
    int *exp2; /* exp2[i] == exp[i % w] for 0 <= i < 2w */
    int *log;  /* log[0] == -1 */
    int *neg;
    int *add;  /* add[a * q + b] == a + b for q <= 256, else NULL */
} Kernel;

/* A divisor g, prepared once for any number of reductions: the nonzero
 * terms of h = -g / lc(g) below the top, as (index, log) pairs. */
typedef struct {
    Py_ssize_t dg; /* deg g */
    Py_ssize_t nh; /* number of nonzero terms of h */
    int linv;      /* log of 1 / lc(g) */
    int *hidx, *hlog;
} Divisor;

/* -- field arithmetic ---------------------------------------------------- */

static int add_digits(const Kernel *k, int a, int b) {
    int p = k->p, out = 0, scale = 1;
    if (k->e == 1)
        return (a + b) % p;
    while (a || b) {
        out += ((a % p + b % p) % p) * scale;
        a /= p;
        b /= p;
        scale *= p;
    }
    return out;
}

static inline int f_add(const Kernel *k, int a, int b) {
    return k->add ? k->add[(Py_ssize_t)a * k->q + b] : add_digits(k, a, b);
}

static inline int f_mul(const Kernel *k, int a, int b) {
    return a && b ? k->exp2[k->log[a] + k->log[b]] : 0;
}

static inline int f_inv(const Kernel *k, int a) {
    return k->exp2[(k->w - k->log[a]) % k->w];
}

/* -- conversions ---------------------------------------------------------- */

static int *new_ints(Py_ssize_t n) {
    int *buf = PyMem_New(int, n + 1);
    if (buf == NULL)
        PyErr_NoMemory();
    return buf;
}

/* Reads an int in [lo, hi); -1 with an exception set on failure. Only int
 * objects are taken, so no Python code runs while a sequence is read. */
static int read_int(PyObject *obj, long lo, long hi, int *out) {
    long v;
    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "expected an int, got %.100s",
                     Py_TYPE(obj)->tp_name);
        return -1;
    }
    if ((v = PyLong_AsLong(obj)) == -1 && PyErr_Occurred())
        return -1;
    if (v < lo || v >= hi) {
        PyErr_Format(PyExc_ValueError, "%ld is outside [%ld, %ld)", v, lo, hi);
        return -1;
    }
    *out = (int)v;
    return 0;
}

/* A new buffer holding the ints of seq, each in [lo, hi), followed by room
 * for `extra` more; their number goes to *len. NULL with an exception set
 * on failure. */
static int *read_ints(PyObject *seq, Py_ssize_t extra, long lo, long hi,
                      Py_ssize_t *len) {
    PyObject *fast = PySequence_Fast(seq, "expected a sequence of ints");
    Py_ssize_t i, n;
    int *buf = NULL;
    if (fast == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(fast);
    if ((buf = new_ints(n + extra)) == NULL)
        goto done;
    for (i = 0; i < n; i++)
        if (read_int(PySequence_Fast_GET_ITEM(fast, i), lo, hi, &buf[i]) < 0) {
            PyMem_Free(buf);
            buf = NULL;
            goto done;
        }
    *len = n;
done:
    Py_DECREF(fast);
    return buf;
}

static int *read_poly(const Kernel *k, PyObject *seq, Py_ssize_t extra,
                      Py_ssize_t *len) {
    return read_ints(seq, extra, 0, k->q, len);
}

static PyObject *to_list(const int *buf, Py_ssize_t n) {
    PyObject *out = PyList_New(n), *item;
    Py_ssize_t i;
    for (i = 0; out != NULL && i < n; i++) {
        if ((item = PyLong_FromLong(buf[i])) == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, item);
    }
    return out;
}

static Py_ssize_t strip(const int *buf, Py_ssize_t n) {
    while (n > 0 && buf[n - 1] == 0)
        n--;
    return n;
}

static int check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t expected) {
    if (nargs == expected)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)",
                 name, expected, nargs);
    return -1;
}

/* -- polynomial loops on buffers ------------------------------------------ */

static void logs_of(const Kernel *k, const int *a, Py_ssize_t la, int *out) {
    Py_ssize_t i;
    for (i = 0; i < la; i++)
        out[i] = a[i] ? k->log[a[i]] : -1;
}

/* out = a * b, where blog holds the logs of b's coefficients (-1 for 0) and
 * out has room for la + lb - 1 ints. Returns the stripped length. */
static Py_ssize_t mul_into(const Kernel *k, const int *a, Py_ssize_t la,
                           const int *blog, Py_ssize_t lb, int *out) {
    Py_ssize_t i, j, lo = la + lb - 1;
    if (la == 0 || lb == 0)
        return 0;
    memset(out, 0, lo * sizeof(int));
    for (i = 0; i < la; i++) {
        int l, *o = out + i;
        if (a[i] == 0)
            continue;
        l = k->log[a[i]];
        for (j = 0; j < lb; j++)
            if (blog[j] >= 0)
                o[j] = f_add(k, o[j], k->exp2[l + blog[j]]);
    }
    return strip(out, lo);
}

/* Fills d for the divisor g (lg >= 1), whose hidx and hlog are stored in
 * `room`, which holds 2 (lg - 1) ints. */
static void prepare_divisor(const Kernel *k, const int *g, Py_ssize_t lg,
                            int *room, Divisor *d) {
    Py_ssize_t j;
    int w = k->w;
    d->dg = lg - 1;
    d->hidx = room;
    d->hlog = room + d->dg;
    d->linv = (w - k->log[g[lg - 1]]) % w;
    d->nh = 0;
    for (j = 0; j < d->dg; j++) {
        if (g[j]) {
            d->hidx[d->nh] = (int)j;
            d->hlog[d->nh++] = (k->log[k->neg[g[j]]] + d->linv) % w;
        }
    }
}

/* Reduces r (length lr) modulo the divisor in place and returns the
 * remainder's stripped length; when lr - 1 < dg, r is only stripped. Writes
 * the quotient's lr - dg coefficients to quot unless it is NULL. */
static Py_ssize_t rem_inplace(const Kernel *k, int *r, Py_ssize_t lr,
                              const Divisor *d, int *quot) {
    Py_ssize_t i, j, dg = d->dg;
    if (lr - 1 < dg)
        return strip(r, lr);
    for (i = lr - dg - 1; i >= 0; i--) {
        int t = r[i + dg], lt = t ? k->log[t] : 0, *ri = r + i;
        if (quot != NULL)
            quot[i] = t ? k->exp2[lt + d->linv] : 0;
        if (t == 0)
            continue;
        for (j = 0; j < d->nh; j++)
            ri[d->hidx[j]] = f_add(k, ri[d->hidx[j]], k->exp2[lt + d->hlog[j]]);
    }
    return strip(r, dg);
}

/* -- the type ----------------------------------------------------------- */

/* A table of exactly n ints in [lo, hi) followed by room for `extra` more. */
static int *read_table(PyObject *seq, Py_ssize_t n, Py_ssize_t extra, long lo,
                       long hi, const char *name) {
    Py_ssize_t len;
    int *buf = read_ints(seq, extra, lo, hi, &len);
    if (buf != NULL && len != n) {
        PyErr_Format(PyExc_ValueError, "%s must have %zd entries", name, n);
        PyMem_Free(buf);
        return NULL;
    }
    return buf;
}

static void kernel_dealloc(Kernel *self) {
    PyMem_Free(self->exp2);
    PyMem_Free(self->log);
    PyMem_Free(self->neg);
    PyMem_Free(self->add);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *kernel_new(PyTypeObject *type, PyObject *args, PyObject *kwds) {
    static char *kwlist[] = {"p", "e", "exp", "log", NULL};
    int p, e, q, w, a, b;
    long long pe = 1;
    PyObject *exp, *log;
    Kernel *self;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iiOO:FieldKernel", kwlist,
                                     &p, &e, &exp, &log))
        return NULL;
    for (a = 0; p >= 2 && a < e && pe <= (1 << 24); a++)
        pe *= p;
    if (p < 2 || e < 1 || pe > (1 << 24)) {
        PyErr_SetString(PyExc_ValueError, "need p >= 2, e >= 1 and p**e <= 2**24");
        return NULL;
    }
    if ((self = (Kernel *)type->tp_alloc(type, 0)) == NULL)
        return NULL;
    self->p = p;
    self->e = e;
    self->q = q = (int)pe;
    self->w = w = q - 1;
    if ((self->exp2 = read_table(exp, w, w, 1, q, "exp")) == NULL
        || (self->log = read_table(log, q, 0, -1, w, "log")) == NULL
        || (self->neg = new_ints(q)) == NULL
        || (q <= 256 && (self->add = new_ints(q * q)) == NULL)) {
        Py_DECREF(self);
        return NULL;
    }
    memcpy(self->exp2 + w, self->exp2, w * sizeof(int));
    /* the lowest base-p digit negates mod p, and the higher digits take the
     * entry already filled for a / p */
    self->neg[0] = 0;
    for (a = 1; a < q; a++)
        self->neg[a] = (p - a % p) % p + p * self->neg[a / p];
    for (a = 0; self->add != NULL && a < q; a++)
        for (b = 0; b < q; b++)
            self->add[a * q + b] = add_digits(self, a, b);
    for (a = 1; a < q; a++)
        if (self->log[a] < 0) {
            PyErr_Format(PyExc_ValueError, "log[%d] is negative", a);
            Py_CLEAR(self);
            break;
        }
    return (PyObject *)self;
}

/* -- scalar methods ------------------------------------------------------ */

#define SCALAR_METHOD(NAME, NARGS, EXPR)                                     \
    static PyObject *k_##NAME(Kernel *k, PyObject *const *args,              \
                              Py_ssize_t nargs) {                            \
        int v[2] = {0, 0};                                                   \
        if (check_nargs(#NAME, nargs, NARGS) < 0                             \
            || read_int(args[0], 0, k->q, &v[0]) < 0                         \
            || (NARGS == 2 && read_int(args[1], 0, k->q, &v[1]) < 0))        \
            return NULL;                                                     \
        return PyLong_FromLong(EXPR);                                        \
    }

SCALAR_METHOD(fadd, 2, f_add(k, v[0], v[1]))
SCALAR_METHOD(fneg, 1, k->neg[v[0]])
SCALAR_METHOD(fsub, 2, f_add(k, v[0], k->neg[v[1]]))
SCALAR_METHOD(fmul, 2, f_mul(k, v[0], v[1]))

static PyObject *k_finv(Kernel *k, PyObject *const *args, Py_ssize_t nargs) {
    int a;
    if (check_nargs("finv", nargs, 1) < 0 || read_int(args[0], 0, k->q, &a) < 0)
        return NULL;
    if (a == 0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "inverse of zero");
        return NULL;
    }
    return PyLong_FromLong(f_inv(k, a));
}

/* -- polynomial methods ---------------------------------------------------- */

/* f + g, or f - g when negate is set. */
static PyObject *add_or_sub(Kernel *k, const char *name, PyObject *const *args,
                            Py_ssize_t nargs, int negate) {
    Py_ssize_t lf, lg, i;
    int *f, *g, *lo, *hi;
    PyObject *out = NULL;
    if (check_nargs(name, nargs, 2) < 0
        || (f = read_poly(k, args[0], 0, &lf)) == NULL)
        return NULL;
    if ((g = read_poly(k, args[1], 0, &lg)) != NULL) {
        for (i = 0; negate && i < lg; i++)
            g[i] = k->neg[g[i]];
        hi = lf >= lg ? f : g;
        lo = lf >= lg ? g : f;
        for (i = 0; i < (lf < lg ? lf : lg); i++)
            hi[i] = f_add(k, hi[i], lo[i]);
        out = to_list(hi, strip(hi, lf > lg ? lf : lg));
    }
    PyMem_Free(f);
    PyMem_Free(g);
    return out;
}

#define ADD_METHOD(NAME, NEGATE)                                             \
    static PyObject *k_##NAME(Kernel *k, PyObject *const *args,              \
                              Py_ssize_t nargs) {                            \
        return add_or_sub(k, #NAME, args, nargs, NEGATE);                    \
    }

ADD_METHOD(padd, 0)
ADD_METHOD(psub, 1)

/* c * f as a list; f's buffer is overwritten. */
static PyObject *scale_to_list(const Kernel *k, int *f, Py_ssize_t lf, int c) {
    Py_ssize_t i;
    if (c == 0)
        return PyList_New(0);
    for (i = 0; i < lf; i++)
        f[i] = f_mul(k, f[i], c);
    return to_list(f, lf);
}

/* f made monic, as a list: f itself when it is 0 or already monic. An
 * unstripped f with a zero top raises, as finv(0) does. */
static PyObject *monic_to_list(const Kernel *k, int *f, Py_ssize_t lf) {
    if (lf == 0 || f[lf - 1] == 1)
        return to_list(f, lf);
    if (f[lf - 1] == 0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "inverse of zero");
        return NULL;
    }
    return scale_to_list(k, f, lf, f_inv(k, f[lf - 1]));
}

static PyObject *k_pscale(Kernel *k, PyObject *const *args, Py_ssize_t nargs) {
    Py_ssize_t lf;
    int c, *f;
    PyObject *out;
    if (check_nargs("pscale", nargs, 2) < 0 || read_int(args[1], 0, k->q, &c) < 0)
        return NULL;
    if (c == 0)
        return PyList_New(0);
    if ((f = read_poly(k, args[0], 0, &lf)) == NULL)
        return NULL;
    out = scale_to_list(k, f, lf, c);
    PyMem_Free(f);
    return out;
}

static PyObject *k_pmonic(Kernel *k, PyObject *const *args, Py_ssize_t nargs) {
    Py_ssize_t lf;
    int *f;
    PyObject *out;
    if (check_nargs("pmonic", nargs, 1) < 0
        || (f = read_poly(k, args[0], 0, &lf)) == NULL)
        return NULL;
    out = monic_to_list(k, f, lf);
    PyMem_Free(f);
    return out;
}

static PyObject *k_pmul(Kernel *k, PyObject *const *args, Py_ssize_t nargs) {
    Py_ssize_t lf, lg;
    int *f, *g, *out = NULL;
    PyObject *res = NULL;
    if (check_nargs("pmul", nargs, 2) < 0
        || (f = read_poly(k, args[0], 0, &lf)) == NULL)
        return NULL;
    if ((g = read_poly(k, args[1], 0, &lg)) != NULL
        && (out = new_ints(lf + lg)) != NULL) {
        logs_of(k, g, lg, g);
        res = to_list(out, mul_into(k, f, lf, g, lg, out));
    }
    PyMem_Free(f);
    PyMem_Free(g);
    PyMem_Free(out);
    return res;
}

/* The sum of h_i * rows[i]. rows is copied into a tuple first, so no code
 * run while a row is read can change which rows there are. */
static PyObject *k_papply(Kernel *k, PyObject *const *args, Py_ssize_t nargs) {
    Py_ssize_t n, lh = 0, lr = 0, i, j;
    int *h = NULL, *out = NULL, *row = NULL;
    PyObject *rows, *res = NULL;
    if (check_nargs("papply", nargs, 2) < 0
        || (rows = PySequence_Tuple(args[0])) == NULL)
        return NULL;
    n = PyTuple_GET_SIZE(rows);
    if ((h = read_poly(k, args[1], 0, &lh)) == NULL || (out = new_ints(n)) == NULL)
        goto done;
    memset(out, 0, n * sizeof(int));
    for (i = 0; i < n && lh <= n && lr <= n; i++) {
        PyObject *seq = PyTuple_GET_ITEM(rows, i);
        int l = i < lh && h[i] ? k->log[h[i]] : -1;
        if (l < 0 ? (lr = PyObject_Length(seq)) < 0
                  : (row = read_poly(k, seq, 0, &lr)) == NULL)
            goto done;
        for (j = 0; row != NULL && lr <= n && j < lr; j++)
            if (row[j])
                out[j] = f_add(k, out[j], k->exp2[l + k->log[row[j]]]);
        PyMem_Free(row);
        row = NULL;
    }
    if (lh > n || lr > n)
        PyErr_Format(PyExc_ValueError,
                     "papply: h and each row need at most %zd coefficients", n);
    else
        res = to_list(out, strip(out, n));
done:
    Py_DECREF(rows);
    PyMem_Free(h);
    PyMem_Free(out);
    return res;
}

/* Reads f and g for pdivrem and prem and prepares g as the divisor in
 * *room. The caller frees f, g and room, whether or not this fails. */
static int read_division(Kernel *k, const char *name, PyObject *const *args,
                         Py_ssize_t nargs, int **f, Py_ssize_t *lf, int **g,
                         int **room, Divisor *d) {
    Py_ssize_t lg;
    *f = *g = *room = NULL;
    if (check_nargs(name, nargs, 2) < 0
        || (*g = read_poly(k, args[1], 0, &lg)) == NULL)
        return -1;
    if (lg == 0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "polynomial division by zero");
        return -1;
    }
    if ((*f = read_poly(k, args[0], 0, lf)) == NULL
        || (*room = new_ints(2 * lg)) == NULL)
        return -1;
    prepare_divisor(k, *g, lg, *room, d);
    return 0;
}

static PyObject *k_pdivrem(Kernel *k, PyObject *const *args, Py_ssize_t nargs) {
    Py_ssize_t lf, lq;
    int *f, *g, *room, *quot = NULL;
    Divisor d;
    PyObject *q = NULL, *r = NULL, *res = NULL;
    if (read_division(k, "pdivrem", args, nargs, &f, &lf, &g, &room, &d) == 0) {
        lq = lf > d.dg ? lf - d.dg : 0;
        if ((quot = new_ints(lq)) != NULL
            && (r = to_list(f, rem_inplace(k, f, lf, &d, quot))) != NULL
            && (q = to_list(quot, strip(quot, lq))) != NULL)
            res = PyTuple_Pack(2, q, r);
    }
    Py_XDECREF(q);
    Py_XDECREF(r);
    PyMem_Free(f);
    PyMem_Free(g);
    PyMem_Free(room);
    PyMem_Free(quot);
    return res;
}

static PyObject *k_prem(Kernel *k, PyObject *const *args, Py_ssize_t nargs) {
    Py_ssize_t lf;
    int *f, *g, *room;
    Divisor d;
    PyObject *res = NULL;
    if (read_division(k, "prem", args, nargs, &f, &lf, &g, &room, &d) == 0)
        res = to_list(f, rem_inplace(k, f, lf, &d, NULL));
    PyMem_Free(f);
    PyMem_Free(g);
    PyMem_Free(room);
    return res;
}

/* Euclid's algorithm in place: a and b trade buffers, and each buffer only
 * ever holds its input or a remainder computed in it, which is shorter. */
static PyObject *k_pgcd(Kernel *k, PyObject *const *args, Py_ssize_t nargs) {
    Py_ssize_t la, lb, lr;
    int *a, *b = NULL, *t, *room = NULL;
    Divisor d;
    PyObject *res = NULL;
    if (check_nargs("pgcd", nargs, 2) < 0
        || (a = read_poly(k, args[0], 0, &la)) == NULL)
        return NULL;
    if ((b = read_poly(k, args[1], 0, &lb)) != NULL
        && (room = new_ints(2 * (la > lb ? la : lb))) != NULL) {
        while (lb > 0) {
            prepare_divisor(k, b, lb, room, &d);
            lr = rem_inplace(k, a, la, &d, NULL);
            t = a, a = b, b = t;
            la = lb, lb = lr;
        }
        res = monic_to_list(k, a, la);
    }
    PyMem_Free(a);
    PyMem_Free(b);
    PyMem_Free(room);
    return res;
}

/* f^n mod m by right-to-left binary powering; [1] for n <= 0. The bits of
 * an n past 63 bits are read from its little-endian bytes. */
static PyObject *k_ppowmod(Kernel *k, PyObject *const *args, Py_ssize_t nargs) {
    Py_ssize_t lf, lm, lbase, lacc = 1, cap, i, nbits = 0;
    int *m, *f = NULL, *work = NULL, *base, *acc, *prod, *logs, *t, overflow;
    long long small;
    Divisor d;
    PyObject *big = NULL, *tmp, *res = NULL;
    if (check_nargs("ppowmod", nargs, 3) < 0
        || (m = read_poly(k, args[2], 0, &lm)) == NULL)
        return NULL;
    if (lm < 2) {
        PyErr_SetString(PyExc_ZeroDivisionError,
                        "powmod modulus must be nonconstant");
        goto done;
    }
    cap = 2 * lm - 1; /* more than a product of two remainders needs */
    if ((f = read_poly(k, args[0], cap, &lf)) == NULL
        || (work = new_ints(5 * cap)) == NULL)
        goto done;
    /* work holds acc, prod, logs and then the divisor's 2 (lm - 1) ints;
     * base, acc and prod trade buffers, so each has room for cap ints */
    base = f, acc = work, prod = work + cap, logs = work + 2 * cap;
    prepare_divisor(k, m, lm, work + 3 * cap, &d);
    lbase = rem_inplace(k, base, lf, &d, NULL);
    acc[0] = 1;

    small = PyLong_AsLongLongAndOverflow(args[1], &overflow);
    if (small == -1 && PyErr_Occurred())
        goto done;
    if (overflow == 0)
        while (small > 0 && small >> nbits)
            nbits++;
    else if (overflow > 0) {
        if ((big = PyNumber_Index(args[1])) == NULL
            || (tmp = PyObject_CallMethod(big, "bit_length", NULL)) == NULL)
            goto done;
        nbits = PyLong_AsSsize_t(tmp);
        Py_DECREF(tmp);
        if (nbits < 0)
            goto done;
        tmp = PyObject_CallMethod(big, "to_bytes", "ns", (nbits + 7) / 8, "little");
        Py_DECREF(big);
        if ((big = tmp) == NULL)
            goto done;
    }
    for (i = 0; i < nbits; i++) {
        logs_of(k, base, lbase, logs);
        if (big ? ((unsigned char)PyBytes_AS_STRING(big)[i / 8] >> (i % 8)) & 1
                : (small >> i) & 1) {
            lacc = rem_inplace(k, prod, mul_into(k, acc, lacc, logs, lbase, prod),
                               &d, NULL);
            t = acc, acc = prod, prod = t;
        }
        if (i + 1 < nbits) {
            lbase = rem_inplace(k, prod, mul_into(k, base, lbase, logs, lbase, prod),
                                &d, NULL);
            t = base, base = prod, prod = t;
        }
    }
    res = to_list(acc, lacc);
done:
    Py_XDECREF(big);
    PyMem_Free(m);
    PyMem_Free(f);
    PyMem_Free(work);
    return res;
}

/* -- module --------------------------------------------------------------- */

#define METHOD(NAME) \
    {#NAME, (PyCFunction)(void (*)(void))k_##NAME, METH_FASTCALL, NULL}

static PyMethodDef kernel_methods[] = {
    METHOD(fadd), METHOD(fneg), METHOD(fsub), METHOD(fmul), METHOD(finv),
    METHOD(padd), METHOD(psub), METHOD(pscale), METHOD(pmul), METHOD(pdivrem),
    METHOD(prem), METHOD(pmonic), METHOD(pgcd), METHOD(ppowmod), METHOD(papply),
    {NULL, NULL, 0, NULL},
};

static PyMemberDef kernel_members[] = {
    {"p", T_INT, offsetof(Kernel, p), READONLY, NULL},
    {"e", T_INT, offsetof(Kernel, e), READONLY, NULL},
    {"q", T_INT, offsetof(Kernel, q), READONLY, NULL},
    {"w", T_INT, offsetof(Kernel, w), READONLY, NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "qcff._kernels._core.FieldKernel",
    .tp_doc = "Arithmetic engine bound to one field's precomputed tables.",
    .tp_basicsize = sizeof(Kernel),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = kernel_new,
    .tp_dealloc = (destructor)kernel_dealloc,
    .tp_methods = kernel_methods,
    .tp_members = kernel_members,
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "qcff._kernels._core",
    .m_doc = "Compiled arithmetic kernel; same interface as qcff._kernels.pure.",
    .m_size = -1,
};

PyMODINIT_FUNC PyInit__core(void) {
    PyObject *mod = PyModule_Create(&core_module);
    if (mod != NULL && PyModule_AddType(mod, &KernelType) < 0)
        Py_CLEAR(mod);
    return mod;
}
