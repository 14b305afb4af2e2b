      PROGRAM PRIVRW
      REAL RESULT
      COMMON /OUT/ RESULT
      REAL T(100), X(100), Y(100)
      INTEGER I, K
      DO I = 1, 100
        X(I) = 2.0 * I
        Y(I) = 0.0
      END DO
      DO K = 1, 3
        DO I = 1, 100
          T(I) = T(I) + X(I)
          Y(I) = T(I)
        END DO
      END DO
      RESULT = 0.0
      DO I = 1, 100
        RESULT = RESULT + Y(I)
      END DO
      END
