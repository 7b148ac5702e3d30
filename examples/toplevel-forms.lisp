; One of each top-level form kind.  The interpreter, the compiler and a
; warm image replay must read each the same way, so `s1lc F`,
; `s1lc --interpret F` and a cached `s1lc --serve-batch F` all print
; the same lines.
(proclaim '(special *depth*))

(defvar *scale* (progn (print 'scale-initialized) 3))

(defmacro twice (x) (list '* 2 x))

(defun scaled (n) (twice (* n *scale*)))

(defun depth () *depth*)

(defun probe (d) (let ((*depth* d)) (depth)))

(print (scaled 7))
(list (scaled 2) (probe 'dynamic) *scale*)
